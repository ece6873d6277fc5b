package sim

// FuncID identifies a simulator function in the host code model. IDs are
// dense and assigned by the Tracer at registration time. ID 0 is reserved
// for the scheduler/dispatch loop itself.
type FuncID uint32

// FuncFlags describe properties of a registered simulator function that
// change the host code model's stream: each flag changes a registered
// function's traces or helpers (TestEveryFuncFlagChangesTheStream in
// internal/hostmodel). Flags the model would not read do not exist.
type FuncFlags uint8

const (
	// FuncVirtual marks a function reached through virtual dispatch: its
	// entry block ends in an indirect branch on the host.
	FuncVirtual FuncFlags = 1 << iota
	// FuncLeaf marks a function that calls no further simulator functions:
	// it gets no helper callees.
	FuncLeaf
	// FuncPoly marks a megamorphic virtual call site: many dynamic types
	// flow through it, so its indirect branches rotate targets and defeat
	// the host BTB.
	FuncPoly
)

// Tracer receives host-level execution annotations from the guest simulator.
// The production implementation (internal/hostmodel) converts these into a
// micro-event stream for the host micro-architecture model. Components do
// not call Call and Data themselves: they go through System.TraceCall and
// System.TraceData, which skip the call when the tracer is a NopTracer.
type Tracer interface {
	// RegisterFunc declares a simulator function of approximately codeBytes
	// bytes of host machine code and returns its ID. Registration typically
	// happens at component construction time.
	RegisterFunc(name string, codeBytes int, flags FuncFlags) FuncID
	// Call models the host executing one invocation of fn (body + return).
	Call(fn FuncID)
	// Data models a host-level access of size bytes at host address addr.
	Data(addr uint64, size uint32, write bool)
	// AllocData reserves bytes of host heap for a component's state and
	// returns its base host address; used to derive Data addresses.
	AllocData(name string, bytes uint64) uint64
}

// NopTracer is a Tracer that does nothing but hand out IDs and addresses,
// the default for pure guest simulation and for tests. Calling it is not
// free — an interface call per annotation plus the arguments computed for
// it, about a fifth of an Atomic guest's time — so a System whose tracer is
// a *NopTracer never calls Call or Data (see System.Tracing). A do-nothing
// tracer of any other type is called like a real one.
type NopTracer struct {
	nextFn   FuncID
	nextAddr uint64
}

// NewNopTracer returns a fresh NopTracer.
func NewNopTracer() *NopTracer {
	return &NopTracer{nextFn: 1, nextAddr: 0x10_0000_0000}
}

// RegisterFunc implements Tracer.
func (t *NopTracer) RegisterFunc(name string, codeBytes int, flags FuncFlags) FuncID {
	id := t.nextFn
	t.nextFn++
	return id
}

// Call implements Tracer.
func (t *NopTracer) Call(fn FuncID) {}

// Data implements Tracer.
func (t *NopTracer) Data(addr uint64, size uint32, write bool) {}

// AllocData implements Tracer.
func (t *NopTracer) AllocData(name string, bytes uint64) uint64 {
	base := t.nextAddr
	// Keep allocations 64-byte aligned like a real allocator would.
	t.nextAddr += (bytes + 63) &^ 63
	return base
}
