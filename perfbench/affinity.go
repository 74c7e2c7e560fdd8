package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

func getAffinity() (cpuMask, bool) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	return m, e == 0
}

func setAffinity(m cpuMask) bool {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	return e == 0
}

// pinnable lists the CPUs this process may run on, or -1 alone when the
// affinity cannot be read.
func pinnable() []int {
	m, ok := getAffinity()
	if !ok {
		return []int{-1}
	}
	var out []int
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			out = append(out, cpu)
		}
	}
	return out
}

// onCPU runs fn on the given CPU (-1: wherever the scheduler puts it)
// and restores the thread's affinity afterwards.
func onCPU(cpu int, fn func() time.Duration) time.Duration {
	if cpu < 0 {
		return fn()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, ok := getAffinity()
	if !ok {
		return fn()
	}
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	if !setAffinity(m) {
		return fn()
	}
	defer setAffinity(old)
	return fn()
}
