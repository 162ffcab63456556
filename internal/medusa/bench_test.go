package medusa

import (
	"testing"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// offlineBenchFixture builds a recorder + graphs without test assertions.
func offlineBenchFixture(b testing.TB, nodes int) (*cuda.Process, *Recorder) {
	b.Helper()
	rt := toyRuntime()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 1, Mode: gpu.CostOnly})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()
	src, err := p.Malloc(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := p.Malloc(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	rec.MarkCaptureStageBegin()
	args := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(2), cuda.U32Value(64)}
	if err := p.Launch(s, "toy_scale", args); err != nil {
		b.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := p.Launch(s, "toy_scale", args); err != nil {
			b.Fatal(err)
		}
	}
	g, err := s.EndCapture()
	if err != nil {
		b.Fatal(err)
	}
	if err := rec.AttachGraph(1, g); err != nil {
		b.Fatal(err)
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{NumBlocks: 1, BlockBytes: 1})
	return p, rec
}

func BenchmarkAnalyze1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	opts := AnalyzeOptions{ModelName: "bench", SkipContents: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(rec, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := art.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
	}
}

func BenchmarkDecode1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := art.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// tableScaleFixture approximates a Table-1-sized offline trace
// (Qwen1.5-0.5B: ~9.1k graph nodes over 35 graphs, a few thousand live
// allocations). Nodes reference buffers spread across the whole
// allocation history, so the linear matcher's backward scan pays the
// average-case O(events) cost the index removes.
func tableScaleFixture(b *testing.B) (*cuda.Process, *Recorder) {
	b.Helper()
	const (
		nAllocs   = 4096
		nGraphs   = 35
		nodesPer  = 260
		allocSize = 1 << 12
	)
	rt := toyRuntime()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 1, Mode: gpu.CostOnly})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()
	bufs := make([]uint64, nAllocs)
	for i := range bufs {
		ptr, err := p.Malloc(allocSize)
		if err != nil {
			b.Fatal(err)
		}
		bufs[i] = ptr
	}
	rec.MarkCaptureStageBegin()
	if err := p.Launch(s, "toy_scale", []cuda.Value{
		cuda.PtrValue(bufs[0]), cuda.PtrValue(bufs[1]), cuda.F32Value(2), cuda.U32Value(64),
	}); err != nil {
		b.Fatal(err)
	}
	pick := uint64(12345)
	for g := 0; g < nGraphs; g++ {
		if err := s.BeginCapture(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodesPer; i++ {
			pick = pick*6364136223846793005 + 1442695040888963407
			dst := bufs[pick%nAllocs]
			src := bufs[(pick>>16)%nAllocs]
			args := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(2), cuda.U32Value(64)}
			if err := p.Launch(s, "toy_scale", args); err != nil {
				b.Fatal(err)
			}
		}
		g2, err := s.EndCapture()
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.AttachGraph(g+1, g2); err != nil {
			b.Fatal(err)
		}
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{NumBlocks: 1, BlockBytes: 1})
	return p, rec
}

// BenchmarkAnalyzeWallclock measures end-to-end Analyze wall-clock time
// on the Table-1-scale trace, comparing the pre-PR linear matcher
// against the interval index, sequentially and with the worker pool.
// (The index is built once and cached on the recorder; its construction
// cost shows up in the first iteration only, as in the real offline
// phase where one index serves all 35 graphs.)
func BenchmarkAnalyzeWallclock(b *testing.B) {
	p, rec := tableScaleFixture(b)
	cases := []struct {
		name string
		opts AnalyzeOptions
	}{
		{"linear-seq", AnalyzeOptions{LinearMatch: true, Parallelism: 1}},
		{"indexed-seq", AnalyzeOptions{Parallelism: 1}},
		{"linear-parallel", AnalyzeOptions{LinearMatch: true}},
		{"indexed-parallel", AnalyzeOptions{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opts := tc.opts
			opts.ModelName = "bench"
			opts.SkipContents = true
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(rec, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBackwardMatch(b *testing.B) {
	// A deep event history with the match near the end: the common case
	// (kernels use recently allocated buffers).
	rec := NewRecorder()
	hooks := rec.Hooks()
	for i := 0; i < 4096; i++ {
		hooks.OnAlloc(cuda.AllocEvent{AllocIndex: i, Size: 4096, Addr: 0x7f30_0000_0000 + uint64(i)*8192})
	}
	target := uint64(0x7f30_0000_0000 + 4000*8192 + 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := rec.backwardMatch(len(rec.events), target); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkBackwardMatchIndexed(b *testing.B) {
	// Same trace and probe as BenchmarkBackwardMatch, resolved through
	// the interval index: two binary searches instead of a linear scan.
	rec := NewRecorder()
	hooks := rec.Hooks()
	for i := 0; i < 4096; i++ {
		hooks.OnAlloc(cuda.AllocEvent{AllocIndex: i, Size: 4096, Addr: 0x7f30_0000_0000 + uint64(i)*8192})
	}
	target := uint64(0x7f30_0000_0000 + 4000*8192 + 128)
	ix := rec.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := ix.BackwardMatch(len(rec.events), target); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkRestore1kNodes(b *testing.B) {
	rt := toyRuntime()
	p, rec := offlineBenchFixture(b, 1000)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: int64(i + 2), Mode: gpu.CostOnly})
		rest, err := NewRestorer(fresh, art)
		if err != nil {
			b.Fatal(err)
		}
		if err := rest.ReplayPrefix(); err != nil {
			b.Fatal(err)
		}
		if err := rest.ReplayCaptureStage(); err != nil {
			b.Fatal(err)
		}
		if _, err := rest.RestoreGraphs(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "nodes/restore")
}
