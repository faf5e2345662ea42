package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// daemon is one schedd or schedrouter process the benchmark started.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon runs bin with args plus -addr, logging to workdir, and
// waits until it answers /readyz.  The process is killed if the
// benchmark dies first.
func startDaemon(e *env, name, bin, addr string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(e.workdir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	if err := loadgen.WaitReady(d.url, 30*time.Second); err != nil {
		_ = d.stop() // the readiness error is the one to report
		return nil, fmt.Errorf("%s not ready: %w", name, err)
	}
	return d, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within 10s, and waits for it either way.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; the wait below reports that
	select {
	case err := <-d.done:
		return exitErr(d.name, err)
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s did not drain within 10s", d.name)
	}
}

func exitErr(name string, err error) error {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return fmt.Errorf("%s exited: %w", name, err)
	}
	return err
}

// stopAll stops every daemon, routers first, and joins their errors.
func stopAll(ds []*daemon) error {
	var errs []error
	for i := len(ds) - 1; i >= 0; i-- {
		if err := ds[i].stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
