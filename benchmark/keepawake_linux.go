//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// On the reference box (a 2-vCPU guest) an idle vCPU halts, and waking it
// costs tens of microseconds that vary with the host's load. launch-sync
// waits on a wake-up a dozen times per step, so measured on an otherwise
// idle guest its median step read anything from 77 to 123 µs and its
// throughput 14.8–18.7 k CE/s from one set of ten runs to the next; with
// the vCPUs kept awake the same code reads 64–67 µs and 21–23 k CE/s.
// So every single run keeps one SCHED_IDLE busy loop per CPU beside it, as
// separate processes: that class runs only when nothing else wants the
// CPU and is preempted the moment something does (numeric-apps, which
// leaves no CPU idle, measures the same with and without them). This
// conditions the machine, not the program — the guest's equivalent of
// booting with idle=poll — and it is the same on both sides of any
// comparison.

// keepAwakeFlag marks a re-execution of this binary as a busy loop.
const keepAwakeFlag = "-keep-awake-child"

// keepAwakeLimit ends a busy loop whose parent never stopped it.
const keepAwakeLimit = 170 * time.Second

// startKeepAwake starts the busy loops and returns the function that
// stops them and waits for them to exit. Failing to start them only costs
// steadiness, so it is reported and the run goes on.
func startKeepAwake() (stop func()) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(logOut, "benchmark: no keep-awake loops:", err)
		return func() {}
	}
	var children []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, keepAwakeFlag)
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(logOut, "benchmark: keep-awake loop:", err)
			break
		}
		children = append(children, cmd)
	}
	return func() {
		for _, cmd := range children {
			_ = cmd.Process.Kill() // already exited is fine
		}
		for _, cmd := range children {
			_ = cmd.Wait() // reports the kill; nothing to act on
		}
	}
}

// keepAwakeChild is the busy loop: idle class, one thread, until it is
// killed, its parent is gone, or the limit passes.
func keepAwakeChild() int {
	// SCHED_IDLE (policy 5) is set per thread; the loop stays on the thread
	// that has it.
	runtime.LockOSThread()
	var param [1]int32
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, 5, uintptr(unsafe.Pointer(&param[0]))); errno != 0 {
		// In the normal class the loop would take a core from the
		// system under test; better no loop.
		fmt.Fprintln(os.Stderr, "benchmark: keep-awake loop: SCHED_IDLE:", errno)
		return 1
	}
	runtime.GOMAXPROCS(1)
	parent := os.Getppid()
	deadline := time.Now().Add(keepAwakeLimit)
	var spins atomic.Uint64
	for time.Now().Before(deadline) && os.Getppid() == parent {
		for i := 0; i < 1<<22; i++ { // a few milliseconds between checks
			spins.Add(1)
		}
	}
	return 0
}
