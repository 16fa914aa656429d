package safeio

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "data.csv")
	payload := []byte("header\n1,2,3\n")
	if err := WriteFileBytes(ctx, path, payload); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Errorf("round trip drifted: %q", back)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just data.csv", len(entries))
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := WriteFileBytes(ctx, path, []byte("old contents")); err != nil {
		t.Fatal(err)
	}
	// A failed overwrite must leave the old contents untouched.
	err := WriteFile(ctx, path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "new par"); err != nil {
			return err
		}
		return errors.New("producer failed midway")
	})
	if err == nil {
		t.Fatal("want error from failing producer")
	}
	back, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "old contents" {
		t.Errorf("failed write clobbered the destination: %q", back)
	}
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Errorf("temp file leaked: %d entries", len(entries))
	}
}

func TestWriteFileErrorMatrix(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	cases := []struct {
		name    string
		install func(t *testing.T)
		wantErr error // nil = any non-nil error acceptable
	}{
		{
			name: "write error",
			install: func(t *testing.T) {
				t.Cleanup(SetWriteFault(func(path string, w io.Writer) io.Writer {
					return &FaultWriter{W: w, FailAfter: 4, Err: boom}
				}))
			},
			wantErr: boom,
		},
		{
			name: "short write",
			install: func(t *testing.T) {
				t.Cleanup(SetWriteFault(func(path string, w io.Writer) io.Writer {
					return &FaultWriter{W: w, FailAfter: 4, Short: true}
				}))
			},
			wantErr: io.ErrShortWrite,
		},
		{
			name: "sync failure",
			install: func(t *testing.T) {
				t.Cleanup(SetSyncFault(func(path string) error { return boom }))
			},
			wantErr: boom,
		},
		{
			name: "close failure",
			install: func(t *testing.T) {
				t.Cleanup(SetCloseFault(func(path string) error { return boom }))
			},
			wantErr: boom,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.install(t)
			dir := t.TempDir()
			path := filepath.Join(dir, "out.bin")
			err := WriteFileBytes(ctx, path, []byte("twelve bytes"))
			if err == nil {
				t.Fatal("fault did not surface as an error")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			// The temp file went cleanly, so its discard adds nothing.
			if strings.Contains(err.Error(), "discarding") {
				t.Errorf("err = %v, want the fault alone", err)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("failed write left %d files behind", len(left))
			}
		})
	}
}

// TestWriteFileCleanupErrors: a failed write whose temp file cannot be
// removed reports both errors.
func TestWriteFileCleanupErrors(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")

	// Replace the temp file with a non-empty directory of the same
	// name mid-write: the write fails, and so does removing the temp.
	path := filepath.Join(t.TempDir(), "out.bin")
	t.Cleanup(SetWriteFault(func(path string, w io.Writer) io.Writer {
		tmps, _ := filepath.Glob(path + ".tmp-*")
		for _, tmp := range tmps {
			if err := os.Remove(tmp); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(tmp, "blocker"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		return &FaultWriter{W: w, Err: boom}
	}))
	err := WriteFileBytes(ctx, path, []byte("twelve bytes"))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write fault", err)
	}
	if !strings.Contains(err.Error(), "discarding temp file") {
		t.Errorf("err = %v, want the failed temp-file removal joined on", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("failed write left a destination file")
	}
}

func TestFaultWriterBudget(t *testing.T) {
	var buf bytes.Buffer
	fw := &FaultWriter{W: &buf, FailAfter: 10}
	n, err := fw.Write([]byte("12345"))
	if n != 5 || err != nil {
		t.Fatalf("first write: %d, %v", n, err)
	}
	n, err = fw.Write([]byte("6789012345"))
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("budget-crossing write: %d, %v", n, err)
	}
	if buf.String() != "1234567890" {
		t.Errorf("accepted bytes = %q", buf.String())
	}
}
