//go:build !linux

package main

const keepAwakeFlag = "-keep-awake-child"

// Process priorities are not portable; elsewhere runs go without the
// keep-awake loops (see keepawake_unix.go).
func startKeepAwake() (stop func()) { return func() {} }

func keepAwakeChild() int { return 1 }
