package hostmodel

import "unsafe"

// HeldBytes is what l keeps of its binary: the function headers and the
// steps behind them, counted by capacity.
func (l *Layout) HeldBytes() int {
	n := cap(l.funcs) * int(unsafe.Sizeof(fnLayout{}))
	for i := range l.funcs {
		n += cap(l.funcs[i].steps) * int(unsafe.Sizeof(traceStep{}))
	}
	return n
}
