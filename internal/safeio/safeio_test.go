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
	sum, err := WriteFileBytes(ctx, path, payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := SHA256Hex(payload); sum != want {
		t.Errorf("sum = %s, want %s", sum, want)
	}
	back, err := ReadFileVerified(ctx, path, sum)
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
	if _, err := WriteFileBytes(ctx, path, []byte("old contents")); err != nil {
		t.Fatal(err)
	}
	// A failed overwrite must leave the old contents untouched.
	_, err := WriteFile(ctx, path, func(w io.Writer) error {
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
			path := filepath.Join(t.TempDir(), "out.bin")
			_, err := WriteFileBytes(ctx, path, []byte("twelve bytes"))
			if err == nil {
				t.Fatal("fault did not surface as an error")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
				t.Errorf("failed write left a destination file")
			}
		})
	}
}

func TestReadFileVerifiedErrors(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	payload := []byte("cells,go,here\n1,2,3\n")
	sum, err := WriteFileBytes(ctx, path, payload)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("checksum mismatch on single-byte flip", func(t *testing.T) {
		flipped := append([]byte(nil), payload...)
		flipped[5] ^= 0x01
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFileVerified(ctx, path, sum)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("flipped byte not caught: %v", err)
		}
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		if err := os.WriteFile(path, payload[:7], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFileVerified(ctx, path, sum); err == nil {
			t.Error("truncated file not caught")
		}
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("read error", func(t *testing.T) {
		boom := errors.New("disk gone")
		defer SetReadFault(func(path string, r io.Reader) io.Reader {
			return &FaultReader{R: r, FailAfter: 3, Err: boom}
		})()
		if _, err := ReadFileVerified(ctx, path, sum); !errors.Is(err, boom) {
			t.Errorf("err = %v, want %v", err, boom)
		}
	})

	t.Run("short read", func(t *testing.T) {
		defer SetReadFault(func(path string, r io.Reader) io.Reader {
			return &FaultReader{R: r, FailAfter: 3, Short: true}
		})()
		if _, err := ReadFileVerified(ctx, path, sum); err == nil {
			t.Error("short read not caught by checksum")
		}
	})

	t.Run("missing file", func(t *testing.T) {
		if _, err := ReadFileVerified(ctx, filepath.Join(dir, "nope"), sum); err == nil {
			t.Error("missing file not reported")
		}
	})

	t.Run("empty wantSum skips verification", func(t *testing.T) {
		back, err := ReadFileVerified(ctx, path, "")
		if err != nil || !bytes.Equal(back, payload) {
			t.Errorf("unverified read failed: %v", err)
		}
	})
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
