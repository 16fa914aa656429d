package safeio

import (
	"errors"
	"io"
	"os"
	"sync"
)

// ErrInjected is the default error FaultWriter surfaces.
var ErrInjected = errors.New("safeio: injected fault")

// FaultWriter is a test double: it forwards to W until FailAfter bytes
// have been accepted, then fails. With Short unset the failure is an
// explicit error (Err, defaulting to ErrInjected); with Short set the
// writer misbehaves instead — it accepts only part of the slice and
// returns the short count with a nil error, the classic short write
// that naive callers silently absorb. safeio's strict layer must
// convert the latter into io.ErrShortWrite.
type FaultWriter struct {
	W         io.Writer
	FailAfter int64
	Err       error
	Short     bool

	written int64
}

func (f *FaultWriter) Write(p []byte) (int, error) {
	budget := f.FailAfter - f.written
	if budget >= int64(len(p)) {
		n, err := f.W.Write(p)
		f.written += int64(n)
		return n, err
	}
	if budget < 0 {
		budget = 0
	}
	n, err := f.W.Write(p[:budget])
	f.written += int64(n)
	if err != nil {
		return n, err
	}
	if f.Short {
		return n, nil
	}
	if f.Err != nil {
		return n, f.Err
	}
	return n, ErrInjected
}

// Fault-injection hooks. Tests install them to interpose on the real
// file operations WriteFile performs; production code never sets them.
// Each setter returns a restore func so tests can defer cleanup.
var (
	hookMu       sync.Mutex
	writeHookFn  func(path string, w io.Writer) io.Writer
	syncFaultFn  func(path string) error
	closeFaultFn func(path string) error
)

// SetWriteFault interposes h on the data path of every WriteFile until
// the returned restore func runs.
func SetWriteFault(h func(path string, w io.Writer) io.Writer) (restore func()) {
	hookMu.Lock()
	defer hookMu.Unlock()
	prev := writeHookFn
	writeHookFn = h
	return func() { hookMu.Lock(); writeHookFn = prev; hookMu.Unlock() }
}

// SetSyncFault makes WriteFile's pre-rename fsync fail with the error
// f returns (nil = no fault) until the returned restore func runs.
func SetSyncFault(f func(path string) error) (restore func()) {
	hookMu.Lock()
	defer hookMu.Unlock()
	prev := syncFaultFn
	syncFaultFn = f
	return func() { hookMu.Lock(); syncFaultFn = prev; hookMu.Unlock() }
}

// SetCloseFault makes WriteFile's temp-file Close fail with the error
// f returns (nil = no fault) until the returned restore func runs.
// It pins that a Close error reaches the caller rather than being
// discarded by a deferred Close, the classic way a truncated file
// ships behind a nil error.
func SetCloseFault(f func(path string) error) (restore func()) {
	hookMu.Lock()
	defer hookMu.Unlock()
	prev := closeFaultFn
	closeFaultFn = f
	return func() { hookMu.Lock(); closeFaultFn = prev; hookMu.Unlock() }
}

func writeHook() func(string, io.Writer) io.Writer {
	hookMu.Lock()
	defer hookMu.Unlock()
	return writeHookFn
}

func syncFile(f *os.File) error {
	hookMu.Lock()
	fault := syncFaultFn
	hookMu.Unlock()
	if fault != nil {
		if err := fault(f.Name()); err != nil {
			metricFaults.Inc()
			return err
		}
	}
	metricFsyncs.Inc()
	return f.Sync()
}

func closeFile(f *os.File) error {
	hookMu.Lock()
	fault := closeFaultFn
	hookMu.Unlock()
	if fault != nil {
		if err := fault(f.Name()); err != nil {
			metricFaults.Inc()
			return errors.Join(err, f.Close())
		}
	}
	return f.Close()
}
