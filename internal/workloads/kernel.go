package workloads

import (
	"fmt"

	"gem5prof/internal/isa"
	"gem5prof/internal/sysemu"
)

// KernelBase is the load address of the FS mini-kernel (the workload image
// occupies low memory starting at 0x1000).
const KernelBase uint32 = 0x0010_0000

// KernelConfig parameterizes the FS mini-kernel image.
type KernelConfig struct {
	// AppEntry, when nonzero, is jumped to after boot as the init process.
	// The app exits through an ECALL with a7=93; a0 becomes the poweroff
	// code. Zero means Boot-Exit: power off right after boot.
	AppEntry uint32
	// BootKBs is how many kilobytes of "page tables" boot zeroes (the
	// dominant boot work; scales boot length).
	BootKBs int
	// Harts is the number of CPUs; secondary harts park in WFI loops.
	Harts int
}

// DefaultKernelConfig returns the boot configuration used by the
// experiments: a scaled-down analogue of the paper's Linux 5.4 boot.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{BootKBs: 32, Harts: 1}
}

// jiffies is how many timer ticks boot waits for while "calibrating".
const jiffies = 4

// BuildKernel assembles the FS mini-kernel. The kernel:
//   - parks secondary harts,
//   - installs the machine trap vector,
//   - prints a boot banner over the UART,
//   - zeroes its "page table" region and probes devices,
//   - calibrates against the timer (taking real timer interrupts),
//   - runs the init app (if any), servicing its exit/write syscalls,
//   - powers the machine off.
func BuildKernel(cfg KernelConfig) (*isa.Program, error) {
	if cfg.BootKBs <= 0 {
		cfg.BootKBs = 32
	}
	appCall := `
	# Boot-Exit: no init app.
`
	if cfg.AppEntry != 0 {
		appCall = fmt.Sprintf(`
	# spawn init: jump into the application image.
	li   t0, %#x
	jalr ra, 0(t0)
`, cfg.AppEntry)
	}

	src := fmt.Sprintf(`
	.org %#x
_start:
	# Secondary harts sleep forever.
	csrrs t0, 0xF14, x0       # mhartid
	beq  t0, x0, boot
park:
	wfi
	j    park

boot:
	li   sp, %#x
	la   t0, trap_vector
	csrrw x0, 0x305, t0       # mtvec

	# Banner out the UART.
	la   s0, banner
	li   s1, %#x              # UART tx
banner_loop:
	lbu  t0, 0(s0)
	beq  t0, x0, banner_done
	sb   t0, 0(s1)
	addi s0, s0, 1
	j    banner_loop
banner_done:

	# "Page table" init: zero the boot region.
	la   s0, boot_mem
	li   s1, %d               # words
	li   t0, 0
zero_loop:
	slli t1, t0, 2
	add  t1, t1, s0
	sw   x0, 0(t1)
	addi t0, t0, 1
	blt  t0, s1, zero_loop

	# Device probe: poll the UART status register.
	li   s0, %#x              # UART status
	li   t0, 0
	li   t1, 400
probe_loop:
	lw   t2, 0(s0)
	addi t0, t0, 1
	blt  t0, t1, probe_loop

	# Calibrate delay loop against the timer: wait for J jiffies.
	la   s0, jiffies
	sw   x0, 0(s0)
	li   t0, 8
	csrrs x0, 0x300, t0       # mstatus.MIE
	call arm_timer
calib_loop:
	la   s0, jiffies
	lw   t0, 0(s0)
	li   t1, %d
	bge  t0, t1, calib_done
	wfi
	j    calib_loop
calib_done:
%s
	# Power off; a0 carries the init exit code (0 for boot-exit).
	li   t0, %#x
	sw   a0, 0(t0)
hang:
	j    hang

# arm_timer: mtimecmp = mtime + 1 (one microsecond ahead).
arm_timer:
	li   t0, %#x              # timer base
	lw   t1, 0(t0)            # mtime lo
	addi t1, t1, 1
	sw   t1, 8(t0)            # mtimecmp lo
	ret

trap_vector:
	# Save clobbered registers.
	la   t6, trap_save
	sw   t0, 0(t6)
	sw   t1, 4(t6)
	sw   t2, 8(t6)
	sw   t3, 12(t6)
	sw   t4, 16(t6)
	csrrs t0, 0x342, x0       # mcause
	li   t1, 11
	beq  t0, t1, handle_ecall
	# Timer interrupt: jiffies++ and rearm while calibrating.
	la   t2, jiffies
	lw   t3, 0(t2)
	addi t3, t3, 1
	sw   t3, 0(t2)
	li   t4, %d
	bge  t3, t4, trap_ret     # calibration done: stop rearming
	li   t0, %#x
	lw   t1, 0(t0)
	addi t1, t1, 1
	sw   t1, 8(t0)
	j    trap_ret

handle_ecall:
	# Advance mepc past the ecall.
	csrrs t1, 0x341, x0
	addi t1, t1, 4
	csrrw x0, 0x341, t1
	# Dispatch on a7.
	li   t1, 93
	beq  a7, t1, sys_exit
	li   t1, 64
	beq  a7, t1, sys_write
	j    trap_ret             # ENOSYS: ignore
sys_exit:
	li   t0, %#x
	sw   a0, 0(t0)            # poweroff(code)
	j    trap_ret
sys_write:
	# write(fd=a0, buf=a1, len=a2) to the UART.
	li   t0, %#x
	mv   t1, a1
	mv   t2, a2
	beq  t2, x0, trap_ret
write_loop:
	lbu  t3, 0(t1)
	sb   t3, 0(t0)
	addi t1, t1, 1
	addi t2, t2, -1
	bne  t2, x0, write_loop
trap_ret:
	la   t6, trap_save
	lw   t0, 0(t6)
	lw   t1, 4(t6)
	lw   t2, 8(t6)
	lw   t3, 12(t6)
	lw   t4, 16(t6)
	mret

banner:
	.asciz "g5 kernel 5.4.0-repro booting on KISA...\n"
	.align 8
jiffies:
	.space 4
trap_save:
	.space 32
	.align 64
boot_mem:
	.space %d
`,
		KernelBase,
		KernelBase-0x100, // kernel stack grows below the image
		sysemu.UARTBase,
		cfg.BootKBs*1024/4,
		sysemu.UARTBase+4,
		jiffies,
		appCall,
		sysemu.PoweroffBase,
		sysemu.TimerBase,
		jiffies,
		sysemu.TimerBase,
		sysemu.PoweroffBase,
		sysemu.UARTBase,
		cfg.BootKBs*1024,
	)
	return mustBuild("kernel", src)
}
