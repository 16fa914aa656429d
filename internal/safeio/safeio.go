// Package safeio is the repo's hardened file I/O layer. Every number
// the reproduction publishes rests on a pinned dataset that must
// survive a save/load round trip exactly, so this layer guarantees two
// properties the bare os package does not:
//
//   - Atomicity: WriteFile writes into a temp file in the destination
//     directory, fsyncs it, and renames it into place, then fsyncs the
//     directory. A crash, full disk, or failed flush leaves either the
//     old file or the new file — never a truncated hybrid.
//   - Loud failure: Close and Sync errors propagate; short writes are
//     promoted to io.ErrShortWrite instead of being absorbed; reads can
//     be verified against a SHA-256 checksum recorded at write time.
//
// The fault-injection seams in fault.go let tests drive every error
// path (write error, short write, close/sync failure, read error,
// short read) without touching the real filesystem.
package safeio

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"leodivide/internal/obs"
)

// I/O observability (see internal/obs): how many artifacts the process
// wrote and read, how many bytes moved, how often it paid for an fsync,
// and whether any checksum verification or fault injection fired.
var (
	metricWrites       = obs.Default.Counter("safeio.writes")
	metricWriteErrors  = obs.Default.Counter("safeio.write_errors")
	metricBytesWritten = obs.Default.Counter("safeio.bytes_written")
	metricFsyncs       = obs.Default.Counter("safeio.fsyncs")
	metricWriteSecs    = obs.Default.Histogram("safeio.write.seconds", obs.DurationBuckets)
	metricReads        = obs.Default.Counter("safeio.reads")
	metricBytesRead    = obs.Default.Counter("safeio.bytes_read")
	metricVerifies     = obs.Default.Counter("safeio.checksum_verifies")
	metricVerifyFails  = obs.Default.Counter("safeio.checksum_failures")
	metricFaults       = obs.Default.Counter("safeio.faults_injected")
)

// SHA256Hex returns the lowercase hex SHA-256 of data.
func SHA256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

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

// WriteFile atomically writes the content produced by fn to path and
// returns the SHA-256 of the bytes written. fn receives a writer that
// tees into the checksum; any error from fn, from the underlying
// writes, from Sync, from Close, or from the final rename surfaces as
// a non-nil error, and the destination is left untouched (the temp
// file is removed).
//
// Cancellation is observed at entry and again just before the rename;
// a cancelled write leaves the destination untouched. Once the rename
// starts it always completes — atomicity is never traded for latency.
func WriteFile(ctx context.Context, path string, fn func(io.Writer) error) (sumHex string, err error) {
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
		return "", fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("safeio: creating temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			//lint:ignore errdrop best-effort cleanup on the error path; the original write error is what the caller needs
			tmp.Close()
			//lint:ignore errdrop best-effort cleanup on the error path; the original write error is what the caller needs
			os.Remove(tmpName)
		}
	}()

	h := sha256.New()
	var w io.Writer = tmp
	if hook := writeHook(); hook != nil {
		metricFaults.Inc()
		w = hook(path, w)
	}
	cw := &countingWriter{w: w}
	defer func() { metricBytesWritten.Add(cw.n) }()
	w = strictWriter{io.MultiWriter(h, strictWriter{cw})}
	if err := fn(w); err != nil {
		return "", fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	// CreateTemp makes the file 0600; match os.Create's 0666-minus-umask
	// so written artifacts keep their historical permissions.
	if err := tmp.Chmod(0o644); err != nil {
		return "", fmt.Errorf("safeio: setting mode on %s: %w", path, err)
	}
	if err := syncFile(tmp); err != nil {
		return "", fmt.Errorf("safeio: syncing %s: %w", path, err)
	}
	if err := closeFile(tmp); err != nil {
		return "", fmt.Errorf("safeio: closing %s: %w", path, err)
	}
	if err := ctx.Err(); err != nil {
		//lint:ignore errdrop best-effort temp cleanup on cancellation; the cancellation error is what the caller needs
		os.Remove(tmpName)
		return "", fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		//lint:ignore errdrop best-effort temp cleanup; the rename error is already being returned
		os.Remove(tmpName)
		return "", fmt.Errorf("safeio: renaming into %s: %w", path, err)
	}
	syncDir(dir)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WriteFileBytes atomically writes data to path and returns its
// SHA-256. Cancellation semantics are those of WriteFile.
func WriteFileBytes(ctx context.Context, path string, data []byte) (string, error) {
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

// ReadFileVerified reads path fully and, when wantSum is nonempty,
// verifies its SHA-256 against wantSum before returning the bytes. A
// mismatch — a truncated file, a flipped byte, any post-write
// corruption — is an error, never silently accepted. Cancellation is
// observed at entry.
func ReadFileVerified(ctx context.Context, path, wantSum string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("safeio: reading %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdrop closing a read-only file; read errors are surfaced by ReadAll
	defer f.Close()
	var r io.Reader = f
	if hook := readHook(); hook != nil {
		metricFaults.Inc()
		r = hook(path, r)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("safeio: reading %s: %w", path, err)
	}
	metricReads.Inc()
	metricBytesRead.Add(int64(len(data)))
	if wantSum != "" {
		metricVerifies.Inc()
		if got := SHA256Hex(data); got != wantSum {
			metricVerifyFails.Inc()
			return nil, fmt.Errorf("safeio: checksum mismatch for %s: file has %s, manifest says %s",
				path, got, wantSum)
		}
	}
	return data, nil
}
