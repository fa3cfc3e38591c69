//go:build !linux

package main

import "os"

// Keeping the CPUs from halting (awake_linux.go) needs Linux's idle
// scheduling class; elsewhere fleet-paced runs without, and says so.

func keepAwake() { os.Exit(3) }

type awake struct{}

func startAwake() *awake { return &awake{} }

func (a *awake) running() int { return 0 }

func (a *awake) stop() {}
