package medusa

import (
	"encoding/binary"
	"testing"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// scanFixture runs a minimal offline flow: one buffer of weights, one
// src, one dst, a single captured kernel referencing all three. When
// plantPointer is set, the src buffer's contents include the weights
// buffer's device address — an indirect pointer the §8 scanner must
// flag.
func scanFixture(t *testing.T, seed int64, plantPointer bool) (*cuda.Process, *Recorder, *Artifact) {
	t.Helper()
	rt := toyRuntime()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: seed, Mode: gpu.Functional})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()

	weights := mustMalloc(t, p, bufBytes) // alloc 0
	writeFloats(t, p, weights, weightData())
	src := mustMalloc(t, p, bufBytes) // alloc 1
	writeFloats(t, p, src, inputData())
	dst := mustMalloc(t, p, bufBytes) // alloc 2

	if plantPointer {
		// Store the weights buffer's address inside src — an
		// 8-byte-aligned word whose value is a live device pointer.
		var raw [8]byte
		binary.LittleEndian.PutUint64(raw[:], weights)
		buf, _, ok := p.Device().FindBuffer(src)
		if !ok {
			t.Fatal("src buffer missing")
		}
		if err := buf.WriteAt(16, raw[:]); err != nil {
			t.Fatal(err)
		}
	}

	rec.MarkCaptureStageBegin()
	args := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(2), cuda.U32Value(4)}
	if err := p.Launch(s, "toy_scale", args); err != nil { // warm-up
		t.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := p.Launch(s, "toy_scale", args); err != nil {
		t.Fatal(err)
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.AttachGraph(1, g); err != nil {
		t.Fatal(err)
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{NumBlocks: 1, BlockBytes: 1})
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "scan"})
	if err != nil {
		t.Fatal(err)
	}
	return p, rec, art
}

func TestIndirectScanCleanWorkload(t *testing.T) {
	p, rec, art := scanFixture(t, 5000, false)
	warnings, err := ScanIndirectPointers(rec, p, art)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("clean workload produced warnings: %v", warnings)
	}
}

func TestIndirectScanDetectsStoredPointer(t *testing.T) {
	p, rec, art := scanFixture(t, 5100, true)
	warnings, err := ScanIndirectPointers(rec, p, art)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want exactly the planted one", warnings)
	}
	w := warnings[0]
	if w.AllocIndex != 1 || w.Offset != 16 || w.TargetIndex != 0 {
		t.Fatalf("warning = %+v, want src(1)@16 → weights(0)", w)
	}
	if w.String() == "" {
		t.Fatal("empty warning string")
	}
}

func TestIndirectScanRequiresCompleteRecorder(t *testing.T) {
	rec := NewRecorder()
	p := cuda.NewProcess(toyRuntime(), vclock.New(), cuda.Config{Seed: 1, Mode: gpu.Functional})
	if _, err := ScanIndirectPointers(rec, p, &Artifact{}); err == nil {
		t.Fatal("scan of incomplete recorder succeeded")
	}
}

// TestIndirectScanNoPointerTargets covers the empty fan-out: when no
// graph references a buffer through a pointer parameter there is
// nothing to scan, so even a planted pointer yields no warning.
func TestIndirectScanNoPointerTargets(t *testing.T) {
	p, rec, art := scanFixture(t, 5200, true)
	art.Graphs = nil
	warnings, err := ScanIndirectPointers(rec, p, art)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("scan with no pointer targets produced warnings: %v", warnings)
	}
}
