package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The open-loop workload leaves the CPUs idle between ticks, ten
// thousand times a second, and on a virtual machine an idle CPU is
// halted: each halt and each wake-up is an exit to the host, whose cost
// (charged to the guest as CPU time, and to the session as latency)
// follows the host's other guests. On the reference box that moved
// fleet-paced's CPU time and median reaction by 40 % between two sweeps
// of one commit, twice the bound, while the busy workloads moved 8 %.
// keepAwake is the body of a child process that keeps one CPU from
// halting: it spins at SCHED_IDLE, below every normal thread, so the
// benchmark preempts it at once and loses under one per cent of a core
// to it. It says "awake" once it runs at that priority and exits when
// its standard input closes, that is, when the parent closes the pipe
// or dies.
func keepAwake() {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// Not allowed here: better no spinner than one that competes.
		fmt.Fprintln(os.Stderr, "bench: keep-awake: sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(3)
	}
	fmt.Println("awake")
	for {
	}
}

// awake is the set of keepAwake children of this process that reported
// they are spinning.
type awake struct {
	cmds  []*exec.Cmd
	pipes []io.Closer
}

// startAwake starts one keepAwake child per CPU and waits for each to
// report. A child that cannot start or is refused the idle priority is
// left out; the caller records how many run, because a run without them
// measures a different machine.
func startAwake() *awake {
	a := &awake{}
	exe, err := os.Executable()
	if err != nil {
		return a
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, "-keep-awake")
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			continue
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			in.Close()
			continue
		}
		if err := cmd.Start(); err != nil {
			in.Close()
			continue
		}
		if line, _ := bufio.NewReader(out).ReadString('\n'); line != "awake\n" {
			in.Close()
			cmd.Wait()
			continue
		}
		a.cmds, a.pipes = append(a.cmds, cmd), append(a.pipes, in)
	}
	return a
}

func (a *awake) running() int { return len(a.cmds) }

// stop ends the children and waits for each.
func (a *awake) stop() {
	for _, p := range a.pipes {
		p.Close()
	}
	for _, c := range a.cmds {
		c.Process.Kill() // already exiting on the closed pipe; this only hurries it
		c.Wait()
	}
}
