// Package safeio is the repo's hardened file writer. Every artifact the
// repo writes — the CLI's export files and gen's locations file, the
// golden corpus — goes through WriteFile, which guarantees
// two properties the bare os package does not:
//
//   - Atomicity: WriteFile writes into a temp file in the destination
//     directory, fsyncs it, and renames it into place, then fsyncs the
//     directory. A crash, full disk, or failed flush leaves either the
//     old file or the new file — never a truncated hybrid.
//   - Loud failure: Close and Sync errors propagate, and short writes
//     are promoted to io.ErrShortWrite instead of being absorbed.
//
// Datasets are never written: they are regenerated from their
// (seed, region, scale) identity. The fault-injection seams in fault.go
// let tests drive every write error path (write error, short write,
// sync failure, close failure) without touching the real filesystem.
package safeio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"leodivide/internal/obs"
)

// I/O observability (see internal/obs): how many artifacts the process
// wrote, how many bytes moved, how often it paid for an fsync, and
// whether any fault injection fired.
var (
	metricWrites       = obs.Default.Counter("safeio.writes")
	metricWriteErrors  = obs.Default.Counter("safeio.write_errors")
	metricBytesWritten = obs.Default.Counter("safeio.bytes_written")
	metricFsyncs       = obs.Default.Counter("safeio.fsyncs")
	metricWriteSecs    = obs.Default.Histogram("safeio.write.seconds", obs.DurationBuckets)
	metricFaults       = obs.Default.Counter("safeio.faults_injected")
)

// strictWriter enforces the io.Writer contract on a possibly
// misbehaving underlying writer: a short count with a nil error is
// promoted to io.ErrShortWrite so it can never be silently absorbed by
// downstream buffering.
type strictWriter struct {
	w io.Writer
}

func (s strictWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	if err == nil && n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, err
}

// countingWriter counts the bytes the underlying writer accepted, for
// the safeio.bytes_written counter.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteFile atomically writes the content produced by fn to path. Any
// error from fn, from the underlying writes, from Sync, from Close, or
// from the final rename surfaces as a non-nil error, and the
// destination is left untouched (the temp file is removed; a failure
// to remove it is joined onto the returned error).
//
// Cancellation is observed at entry and again just before the rename;
// a cancelled write leaves the destination untouched. Once the rename
// starts it always completes — atomicity is never traded for latency.
func WriteFile(ctx context.Context, path string, fn func(io.Writer) error) (err error) {
	//lint:ignore detrand wall-clock feeds the safeio.write.seconds metric only, never experiment output
	start := time.Now()
	defer func() {
		metricWriteSecs.ObserveSince(start)
		if err != nil {
			metricWriteErrors.Inc()
		} else {
			metricWrites.Inc()
		}
	}()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("safeio: creating temp for %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			if cerr := discardTemp(tmp); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
	}()

	var w io.Writer = tmp
	if hook := writeHook(); hook != nil {
		metricFaults.Inc()
		w = hook(path, w)
	}
	cw := &countingWriter{w: w}
	defer func() { metricBytesWritten.Add(cw.n) }()
	if err := fn(strictWriter{cw}); err != nil {
		return fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	// CreateTemp makes the file 0600; match os.Create's 0666-minus-umask
	// so written artifacts keep their historical permissions.
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("safeio: setting mode on %s: %w", path, err)
	}
	if err := syncFile(tmp); err != nil {
		return fmt.Errorf("safeio: syncing %s: %w", path, err)
	}
	if err := closeFile(tmp); err != nil {
		return fmt.Errorf("safeio: closing %s: %w", path, err)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("safeio: renaming into %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// discardTemp closes and removes the temp file of a failed write. A
// handle that is already closed and a file that is already gone are
// what discarding wants, not failures; any other error is returned, to
// be joined onto the error that failed the write, so a temp file left
// behind is reported rather than silent.
func discardTemp(f *os.File) error {
	cerr := f.Close()
	if errors.Is(cerr, os.ErrClosed) {
		cerr = nil
	}
	rerr := os.Remove(f.Name())
	if errors.Is(rerr, fs.ErrNotExist) {
		rerr = nil
	}
	if cerr != nil || rerr != nil {
		return fmt.Errorf("safeio: discarding temp file: %w", errors.Join(cerr, rerr))
	}
	return nil
}

// WriteFileBytes atomically writes data to path. Cancellation
// semantics are those of WriteFile.
func WriteFileBytes(ctx context.Context, path string, data []byte) error {
	return WriteFile(ctx, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// syncDir fsyncs a directory so the rename that just happened inside
// it is durable. Errors are ignored: some filesystems (and platforms)
// refuse to sync directories, and by this point the data file itself
// is already synced and in place.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	//lint:ignore errdrop documented: some filesystems refuse directory fsync and the data file is already durable
	d.Sync()
	//lint:ignore errdrop closing a read-only directory handle after a best-effort sync
	d.Close()
}
