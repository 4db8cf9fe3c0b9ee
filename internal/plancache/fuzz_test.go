package plancache

import (
	"errors"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
)

// fuzzChain is the leg whose plan the damaged-file property spills.
var fuzzChain = platform.NewChain(2, 5, 3, 3, 1, 4)

// FuzzSpillLoad checks the spill reader's corruption contract on two
// kinds of input.
//
// Arbitrary bytes written as a key's spill file: Get never panics and
// answers either (nil, nil) — a valid header and no records — a
// *CorruptError, or tasks that round-trip through Put and Get.
//
// A valid Put file cut at any offset with at most one byte flipped: Get
// answers a *CorruptError or a prefix of the tasks that were Put. A
// flip inside a record can only hide behind a torn tail when it hits
// the last record left after the cut, and CRC-32 catches every
// single-byte change, so a damaged record is never read back as data.
func FuzzSpillLoad(f *testing.F) {
	inc, err := core.NewIncremental(fuzzChain)
	if err != nil {
		f.Fatal(err)
	}
	inc.Grow(6)
	key, tasks := platform.LegKey(fuzzChain), inc.ExportBackward()

	seedDir := f.TempDir()
	seed, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Put(key, tasks); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint32(len(valid)), uint32(0), byte(0))
	f.Add(valid, uint32(len(valid)-3), uint32(40), byte(0x80))
	f.Add(valid[:len(valid)/2], uint32(len(valid)), uint32(len(valid)-1), byte(1))
	f.Add([]byte("MSPLAN\x00\x01"), uint32(7), uint32(9), byte(0xff))
	f.Add([]byte{}, uint32(0), uint32(0), byte(0))

	// One scratch directory per fuzz worker process: executions within a
	// worker run one at a time, and each one rewrites the key's file.
	readDir, putDir := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, cut, pos uint32, xor byte) {
		// Arbitrary bytes.
		got, err := getFile(t, readDir, key, raw)
		switch {
		case err != nil:
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("arbitrary bytes: error %v is not a *CorruptError", err)
			}
		case len(got) > 0:
			back, err := putGet(t, putDir, key, got)
			if err != nil || !tasksEqual(back, got) {
				t.Fatalf("arbitrary bytes: %d tasks do not round-trip through Put/Get (%v)", len(got), err)
			}
		}

		// A valid file, cut and flipped.
		damaged := append([]byte(nil), valid[:int(cut)%(len(valid)+1)]...)
		if len(damaged) > 0 {
			damaged[int(pos)%len(damaged)] ^= xor
		}
		got, err = getFile(t, readDir, key, damaged)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("damaged file: error %v is not a *CorruptError", err)
			}
			return
		}
		if len(got) > len(tasks) || !tasksEqual(got, tasks[:len(got)]) {
			t.Fatalf("damaged file (cut %d, flip %#x at %d): read %d tasks that are not a prefix of the %d put",
				len(damaged), xor, pos, len(got), len(tasks))
		}
	})
}

// getFile writes data as the key's spill file in a fresh store over
// dir and Gets the key back.
func getFile(t *testing.T, dir, key string, data []byte) ([]sched.ChainTask, error) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return s.Get(key)
}

// putGet Puts the tasks under the key in a fresh store over an emptied
// dir and Gets them back.
func putGet(t *testing.T, dir, key string, tasks []sched.ChainTask) ([]sched.ChainTask, error) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(key, tasks); err != nil {
		return nil, err
	}
	return s.Get(key)
}
