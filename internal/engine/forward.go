package engine

import (
	"encoding/binary"
	"fmt"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/kernels"
	"github.com/medusa-repro/medusa/internal/model"
)

// ensureWorkspace lazily performs the simulated cuBLAS initialization
// for a batch bucket: two 4-byte workspace buffers holding the magic
// words the bucket's GEMM variant checks (§4.3's permanent buffers).
// This happens on first decode-shaped use of a bucket — during the
// warm-up of the capture stage — so the buffers classify as permanent.
func (inst *Instance) ensureWorkspace(bucket int) (wsPair, error) {
	if ws, ok := inst.ws[bucket]; ok {
		return ws, nil
	}
	a, err := inst.proc.Malloc(4)
	if err != nil {
		return wsPair{}, err
	}
	if inst.opts.Recorder != nil {
		inst.opts.Recorder.LabelLastAlloc(fmt.Sprintf("cublas.ws1.b%d", bucket))
	}
	b, err := inst.proc.Malloc(4)
	if err != nil {
		return wsPair{}, err
	}
	if inst.opts.Recorder != nil {
		inst.opts.Recorder.LabelLastAlloc(fmt.Sprintf("cublas.ws2.b%d", bucket))
	}
	m1, m2 := kernels.WorkspaceMagic(bucket)
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], m1)
	if err := inst.proc.MemcpyHtoD(a, w[:]); err != nil {
		return wsPair{}, err
	}
	binary.LittleEndian.PutUint32(w[:], m2)
	if err := inst.proc.MemcpyHtoD(b, w[:]); err != nil {
		return wsPair{}, err
	}
	ws := wsPair{a: a, b: b}
	inst.ws[bucket] = ws
	return ws, nil
}

// restoreWorkspaces adopts the workspace buffers Medusa's replay
// recreated, so serving-time forwarding uses the same buffers the
// restored graphs reference.
func (inst *Instance) restoreWorkspaces() {
	for _, bucket := range kernels.GemmBuckets {
		a, okA := inst.restorer.AddrOfLabel(fmt.Sprintf("cublas.ws1.b%d", bucket))
		b, okB := inst.restorer.AddrOfLabel(fmt.Sprintf("cublas.ws2.b%d", bucket))
		if okA && okB {
			inst.ws[bucket] = wsPair{a: a, b: b}
		}
	}
}

// launchDecodeForward launches one decode-shaped forwarding for `rows`
// sequences — the kernel sequence a CUDA graph captures. Layer count
// and composition follow the model family; the total launch count per
// call is exactly the model's graph node count for this batch size.
func (inst *Instance) launchDecodeForward(rows int) error {
	if rows < 1 {
		return fmt.Errorf("engine: decode forward with %d rows", rows)
	}
	cfg := inst.opts.Model
	bucket := kernels.GemmBucket(rows)
	ws, err := inst.ensureWorkspace(bucket)
	if err != nil {
		return err
	}
	p, s, io := inst.proc, inst.stream, &inst.io
	h, f, v := cfg.Hidden, cfg.FFN, cfg.Vocab
	// Tensor-parallel shards run the same kernel sequence over divided
	// matrix dimensions (attention width, FFN width, vocabulary slice).
	tp := cfg.TP()
	hd, fd, vd := h/tp, f/tp, v/tp
	m := uint32(rows)
	mb := uint32(maxBlocksPerSeq(cfg))
	slPtr := io.meta + uint64(metaSeqlenOffset(cfg, rows))*4
	gemmName := kernels.GemmKernelName(bucket)

	launch := func(name string, args ...cuda.Value) error {
		return p.Launch(s, name, args)
	}
	gemm := func(dst, src, w uint64, n, k int) error {
		return launch(gemmName,
			cuda.PtrValue(dst), cuda.PtrValue(src), cuda.PtrValue(w),
			cuda.PtrValue(ws.a), cuda.PtrValue(ws.b),
			cuda.U32Value(m), cuda.U32Value(uint32(n)), cuda.U32Value(uint32(k)))
	}
	norm := func(dst, src, w uint64) error {
		return launch(kernels.RMSNorm,
			cuda.PtrValue(dst), cuda.PtrValue(src), cuda.PtrValue(w),
			cuda.U32Value(m), cuda.U32Value(uint32(h)))
	}
	add := func(dst, a, b uint64) error {
		return launch(kernels.ResidualAdd,
			cuda.PtrValue(dst), cuda.PtrValue(a), cuda.PtrValue(b),
			cuda.U32Value(m*uint32(h)))
	}

	// Prologue: embedding lookup.
	if err := launch(kernels.EmbedLookup,
		cuda.PtrValue(io.x), cuda.PtrValue(inst.weights["embed_tokens"]), cuda.PtrValue(io.ids),
		cuda.U32Value(m), cuda.U32Value(uint32(h))); err != nil {
		return err
	}

	for l := range inst.layers {
		lw := &inst.layers[l]
		if err := norm(io.norm, io.x, lw.inputNorm); err != nil {
			return err
		}
		if err := gemm(io.qkv, io.norm, lw.wqkv, 3*hd, h); err != nil {
			return err
		}
		if err := launch(kernels.RopeCache,
			cuda.PtrValue(io.qkv), cuda.PtrValue(inst.kcache), cuda.PtrValue(inst.vcache),
			cuda.PtrValue(io.meta), cuda.PtrValue(slPtr),
			cuda.U32Value(m), cuda.U32Value(uint32(hd)), cuda.U32Value(mb)); err != nil {
			return err
		}
		if err := launch(kernels.PagedAttn,
			cuda.PtrValue(io.attnOut), cuda.PtrValue(io.qkv),
			cuda.PtrValue(inst.kcache), cuda.PtrValue(inst.vcache), cuda.PtrValue(io.meta),
			cuda.U32Value(m), cuda.U32Value(uint32(hd)), cuda.U32Value(mb)); err != nil {
			return err
		}
		if err := gemm(io.oOut, io.attnOut, lw.wo, h, hd); err != nil {
			return err
		}
		switch cfg.Family {
		case model.FamilyParallel:
			if err := launch(kernels.BiasAdd,
				cuda.PtrValue(io.oOut), cuda.PtrValue(lw.attnBias),
				cuda.U32Value(m), cuda.U32Value(uint32(h))); err != nil {
				return err
			}
			fallthrough
		case model.FamilyStandard:
			if err := add(io.x, io.x, io.oOut); err != nil {
				return err
			}
			if err := norm(io.norm, io.x, lw.postNorm); err != nil {
				return err
			}
		case model.FamilyFused:
			// Fused residual: the post-norm reads the attention output
			// directly and a single add closes the layer.
			if err := norm(io.norm, io.oOut, lw.postNorm); err != nil {
				return err
			}
		}
		if err := gemm(io.gateUp, io.norm, lw.wgateup, 2*fd, h); err != nil {
			return err
		}
		if err := launch(kernels.SiluMul,
			cuda.PtrValue(io.mlpOut), cuda.PtrValue(io.gateUp),
			cuda.U32Value(m), cuda.U32Value(uint32(fd))); err != nil {
			return err
		}
		if err := gemm(io.downOut, io.mlpOut, lw.wdown, h, fd); err != nil {
			return err
		}
		if cfg.Family == model.FamilyFused {
			if err := add(io.x, io.oOut, io.downOut); err != nil {
				return err
			}
		} else {
			if err := add(io.x, io.x, io.downOut); err != nil {
				return err
			}
		}
	}

	// Epilogue: final norm, LM head, auxiliary logits processing,
	// sampling, optional padding marker.
	if err := norm(io.norm, io.x, inst.weights["final_norm"]); err != nil {
		return err
	}
	if err := launch(kernels.LMHeadGemm,
		cuda.PtrValue(io.logits), cuda.PtrValue(io.norm), cuda.PtrValue(inst.weights["lm_head"]),
		cuda.U32Value(m), cuda.U32Value(uint32(vd)), cuda.U32Value(uint32(h))); err != nil {
		return err
	}
	for i := 0; i < cfg.AuxEpilogueNodes(); i++ {
		if err := launch(kernels.ElemCopy,
			cuda.PtrValue(io.aux), cuda.PtrValue(io.logits),
			cuda.U32Value(m*uint32(vd))); err != nil {
			return err
		}
	}
	if err := launch(kernels.SampleArgmax,
		cuda.PtrValue(io.sample), cuda.PtrValue(io.logits),
		cuda.U32Value(m), cuda.U32Value(uint32(vd)), cuda.U64Value(inst.sampleSeed)); err != nil {
		return err
	}
	if cfg.GraphPadded(rows, inst.opts.CaptureSizes) {
		if err := launch(kernels.PadBatch,
			cuda.PtrValue(io.pad), cuda.U32Value(m)); err != nil {
			return err
		}
	}
	return nil
}

// launchFirstLayerForward launches only the prologue and first decoder
// layer — the triggering-kernels of §5.2. It loads every module the
// full graph needs (the layers are structurally identical) at 1/L of
// the cost.
func (inst *Instance) launchFirstLayerForward(rows int) error {
	cfg := inst.opts.Model
	bucket := kernels.GemmBucket(rows)
	ws, ok := inst.ws[bucket]
	if !ok {
		return fmt.Errorf("engine: first-layer forward for bucket %d without restored workspace", bucket)
	}
	p, s, io := inst.proc, inst.stream, &inst.io
	h, f := cfg.Hidden, cfg.FFN
	tp := cfg.TP()
	hd, fd := h/tp, f/tp
	m := uint32(rows)
	mb := uint32(maxBlocksPerSeq(cfg))
	slPtr := io.meta + uint64(metaSeqlenOffset(cfg, rows))*4
	gemmName := kernels.GemmKernelName(bucket)
	gemm := func(dst, src, w uint64, n, k int) error {
		return p.Launch(s, gemmName, []cuda.Value{
			cuda.PtrValue(dst), cuda.PtrValue(src), cuda.PtrValue(w),
			cuda.PtrValue(ws.a), cuda.PtrValue(ws.b),
			cuda.U32Value(m), cuda.U32Value(uint32(n)), cuda.U32Value(uint32(k))})
	}

	if err := p.Launch(s, kernels.EmbedLookup, []cuda.Value{
		cuda.PtrValue(io.x), cuda.PtrValue(inst.weights["embed_tokens"]), cuda.PtrValue(io.ids),
		cuda.U32Value(m), cuda.U32Value(uint32(h))}); err != nil {
		return err
	}
	if err := p.Launch(s, kernels.RMSNorm, []cuda.Value{
		cuda.PtrValue(io.norm), cuda.PtrValue(io.x), cuda.PtrValue(inst.layers[0].inputNorm),
		cuda.U32Value(m), cuda.U32Value(uint32(h))}); err != nil {
		return err
	}
	if err := gemm(io.qkv, io.norm, inst.layers[0].wqkv, 3*hd, h); err != nil {
		return err
	}
	if err := p.Launch(s, kernels.RopeCache, []cuda.Value{
		cuda.PtrValue(io.qkv), cuda.PtrValue(inst.kcache), cuda.PtrValue(inst.vcache),
		cuda.PtrValue(io.meta), cuda.PtrValue(slPtr),
		cuda.U32Value(m), cuda.U32Value(uint32(hd)), cuda.U32Value(mb)}); err != nil {
		return err
	}
	if err := p.Launch(s, kernels.PagedAttn, []cuda.Value{
		cuda.PtrValue(io.attnOut), cuda.PtrValue(io.qkv),
		cuda.PtrValue(inst.kcache), cuda.PtrValue(inst.vcache), cuda.PtrValue(io.meta),
		cuda.U32Value(m), cuda.U32Value(uint32(hd)), cuda.U32Value(mb)}); err != nil {
		return err
	}
	if err := gemm(io.oOut, io.attnOut, inst.layers[0].wo, h, hd); err != nil {
		return err
	}
	if err := gemm(io.gateUp, io.norm, inst.layers[0].wgateup, 2*fd, h); err != nil {
		return err
	}
	if err := p.Launch(s, kernels.SiluMul, []cuda.Value{
		cuda.PtrValue(io.mlpOut), cuda.PtrValue(io.gateUp),
		cuda.U32Value(m), cuda.U32Value(uint32(fd))}); err != nil {
		return err
	}
	return gemm(io.downOut, io.mlpOut, inst.layers[0].wdown, h, fd)
}

// primeDecodeInputs writes deterministic decode inputs for `rows`
// sequences: token IDs, identity-style block tables, and sequence
// length 1, so a decode replay is self-contained (RoPE writes position
// 0 of each sequence's first block, attention reads it back).
func (inst *Instance) primeDecodeInputs(rows int, step uint32) error {
	if !inst.opts.Model.Functional {
		return nil // cost-only devices have no data plane
	}
	cfg := inst.opts.Model
	dev := inst.proc.Device()
	ids, _, ok := dev.FindBuffer(inst.io.ids)
	if !ok {
		return fmt.Errorf("engine: ids buffer missing")
	}
	meta, _, ok := dev.FindBuffer(inst.io.meta)
	if !ok {
		return fmt.Errorf("engine: meta buffer missing")
	}
	mb := maxBlocksPerSeq(cfg)
	numBlocks := inst.kvMgr.NumBlocks()
	if numBlocks == 0 {
		return fmt.Errorf("engine: priming inputs before KV init")
	}
	slOff := metaSeqlenOffset(cfg, rows)
	for r := 0; r < rows; r++ {
		if err := ids.SetUint32(r, (step*31+uint32(r))%uint32(cfg.Vocab)); err != nil {
			return err
		}
		if err := meta.SetUint32(r*mb, uint32(r%numBlocks)); err != nil {
			return err
		}
		if err := meta.SetUint32(slOff+r, 1); err != nil {
			return err
		}
	}
	return nil
}

// sampleSnapshot reads the sampling output for `rows` sequences — the
// observable forwarding result validation compares (§4).
func (inst *Instance) sampleSnapshot(rows int) ([]byte, error) {
	dev := inst.proc.Device()
	buf, _, ok := dev.FindBuffer(inst.io.sample)
	if !ok {
		return nil, fmt.Errorf("engine: sample buffer missing")
	}
	out := make([]byte, rows*2*4)
	if err := buf.ReadAt(0, out); err != nil {
		return nil, err
	}
	return out, nil
}
