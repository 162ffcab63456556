package medusa

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
)

// perNodeFillCost is the CPU cost of filling one restored node's
// parameters and dependencies (pointer arithmetic plus table lookups).
// Graph instantiation (charged by the cuda layer) dominates restore
// time; this is the small remainder.
const perNodeFillCost = 2 * time.Microsecond

// TriggerFunc runs the online triggering-kernel step for one batch
// size: the engine warms up and captures the *first layer* of the model
// (§5.2), which forces the CUDA driver to load every module the batch's
// graph needs. The resulting throwaway graph is discarded; only the
// module-loading side effect matters.
type TriggerFunc func(batch int) error

// Restorer drives the online phase of Medusa inside a fresh cold-start
// process. Create it before the process makes its first allocation: it
// installs hooks that verify the engine's natural allocations against
// the materialized sequence and record each allocation's address for
// indirect index pointer resolution.
type Restorer struct {
	p    *cuda.Process
	art  *Artifact
	addr []uint64 // alloc index -> this process's address
	have []bool

	cursor    int // next expected event position in art.AllocSeq
	verifyErr error
}

// NewRestorer attaches a restorer to a fresh process. It takes over the
// process's hooks for the duration of the restore.
func NewRestorer(p *cuda.Process, art *Artifact) (*Restorer, error) {
	if p.AllocationCount() != 0 {
		return nil, fmt.Errorf("medusa: restorer must attach before the first allocation (process has %d)", p.AllocationCount())
	}
	r := &Restorer{
		p:    p,
		art:  art,
		addr: make([]uint64, art.AllocCount),
		have: make([]bool, art.AllocCount),
	}
	p.SetHooks(cuda.Hooks{OnAlloc: r.onAlloc})
	return r, nil
}

// onAlloc observes every allocation event of the online process —
// whether issued by the engine's natural control flow or by the
// restorer's own replay — and matches it against the materialized
// sequence. The deterministic control flow (§4) guarantees sizes and
// ordering agree; a mismatch means the artifact belongs to a different
// build and restoration must abort rather than corrupt memory.
func (r *Restorer) onAlloc(ev cuda.AllocEvent) {
	if r.verifyErr != nil || r.cursor >= len(r.art.AllocSeq) {
		return // restoration finished (or already failed); later events are serving activity
	}
	want := r.art.AllocSeq[r.cursor]
	switch {
	case ev.Free != want.Free:
		r.verifyErr = fmt.Errorf("medusa: event %d: control flow diverged (got free=%v, artifact has free=%v)",
			r.cursor, ev.Free, want.Free)
	case !ev.Free && ev.Size != want.Size:
		r.verifyErr = fmt.Errorf("medusa: event %d: allocation size %d, artifact has %d",
			r.cursor, ev.Size, want.Size)
	case ev.Free && ev.AllocIndex != want.AllocIndex:
		r.verifyErr = fmt.Errorf("medusa: event %d: free of allocation %d, artifact frees %d",
			r.cursor, ev.AllocIndex, want.AllocIndex)
	}
	if r.verifyErr != nil {
		return
	}
	if !ev.Free {
		r.addr[want.AllocIndex] = ev.Addr
		r.have[want.AllocIndex] = true
	}
	r.cursor++
}

// Err surfaces any divergence detected so far.
func (r *Restorer) Err() error { return r.verifyErr }

// Position reports how many events of the materialized sequence have
// been consumed.
func (r *Restorer) Position() int { return r.cursor }

// replayThrough issues Malloc/Free for artifact events [cursor, end):
// the §4.2 replay of stages the online control flow skips (profiling
// forwarding, capture-time temporaries and permanents).
func (r *Restorer) replayThrough(end int) error {
	if end > len(r.art.AllocSeq) {
		return fmt.Errorf("medusa: replay through %d exceeds %d events", end, len(r.art.AllocSeq))
	}
	for r.cursor < end {
		if r.verifyErr != nil {
			return r.verifyErr
		}
		ev := r.art.AllocSeq[r.cursor]
		if ev.Free {
			if !r.have[ev.AllocIndex] {
				return fmt.Errorf("medusa: replay frees allocation %d before it exists", ev.AllocIndex)
			}
			if err := r.p.Free(r.addr[ev.AllocIndex]); err != nil {
				return fmt.Errorf("medusa: replay free of allocation %d: %w", ev.AllocIndex, err)
			}
			continue // onAlloc advanced the cursor
		}
		if _, err := r.p.Malloc(ev.Size); err != nil {
			return fmt.Errorf("medusa: replay allocation %d (%d bytes): %w", ev.AllocIndex, ev.Size, err)
		}
	}
	return r.verifyErr
}

// ReplayPrefix replays the materialized sequence up to the capture
// stage boundary. The engine calls this once its own loading stages
// (model structure, weights, tokenizer) have run; the replayed span
// covers the skipped profiling forwarding and ends with the KV cache
// allocations, whose addresses become available through labels.
func (r *Restorer) ReplayPrefix() error {
	return r.replayThrough(r.art.PrefixLen)
}

// ReplayCaptureStage replays the capture-stage events (temporaries and
// permanent buffers) and rematerializes permanent buffer contents.
func (r *Restorer) ReplayCaptureStage() error {
	if err := r.replayThrough(len(r.art.AllocSeq)); err != nil {
		return err
	}
	for _, pr := range r.art.Permanent {
		if !r.have[pr.AllocIndex] {
			return fmt.Errorf("medusa: permanent allocation %d missing after replay", pr.AllocIndex)
		}
		if pr.Contents == nil {
			// Cost-only artifact: charge the (tiny) copy anyway.
			r.p.ChargeHtoD(pr.Size)
			continue
		}
		if err := r.p.MemcpyHtoD(r.addr[pr.AllocIndex], pr.Contents); err != nil {
			return fmt.Errorf("medusa: restore permanent allocation %d contents: %w", pr.AllocIndex, err)
		}
	}
	return nil
}

// AddrOfLabel returns this process's address of a labeled allocation
// (e.g. the KV cache buffers) after the relevant replay has run.
func (r *Restorer) AddrOfLabel(label string) (uint64, bool) {
	idx, ok := r.art.LabelIndex(label)
	if !ok || !r.have[idx] {
		return 0, false
	}
	return r.addr[idx], true
}

// KV returns the materialized KV cache initialization record.
func (r *Restorer) KV() KVRecord { return r.art.KV }

// RestoreGraphs rebuilds every materialized graph into a ready-to-
// launch executable. For each batch size it first invokes the trigger
// (first-layer warm-up and capture) so the CUDA driver loads all
// modules the graph needs, then resolves kernel addresses — via
// dlsym/cudaGetFuncBySymbol for exported kernels, via module
// enumeration for hidden ones (§5) — fills parameters from the indirect
// index pointer table, and instantiates.
func (r *Restorer) RestoreGraphs(trigger TriggerFunc) (map[int]*cuda.GraphExec, error) {
	if r.cursor != len(r.art.AllocSeq) {
		return nil, fmt.Errorf("medusa: RestoreGraphs before replay finished (%d of %d events)",
			r.cursor, len(r.art.AllocSeq))
	}
	out := make(map[int]*cuda.GraphExec, len(r.art.Graphs))
	for gi := range r.art.Graphs {
		g := &r.art.Graphs[gi]
		if trigger != nil {
			if err := trigger(g.Batch); err != nil {
				return nil, fmt.Errorf("medusa: triggering-kernels for batch %d: %w", g.Batch, err)
			}
		}
		slab := newGraphSlab(g)
		nodes := make([]*cuda.Node, len(g.Nodes))
		for ni := range g.Nodes {
			node, err := r.buildNode(slab, ni, &g.Nodes[ni])
			if err != nil {
				return nil, fmt.Errorf("medusa: graph %d node %d: %w", g.Batch, ni, err)
			}
			nodes[ni] = node
		}
		r.p.Clock().Advance(time.Duration(len(nodes)) * perNodeFillCost)
		ge, err := cuda.NewGraph(nodes).Instantiate(r.p)
		if err != nil {
			return nil, fmt.Errorf("medusa: instantiate restored graph %d: %w", g.Batch, err)
		}
		out[g.Batch] = ge
	}
	return out, nil
}

// newGraphSlab sizes one slab for a graph's nodes, parameter headers,
// sizes, image bytes and dependencies, so restoring it allocates per
// graph, not per node or parameter.
func newGraphSlab(g *GraphRecord) *cuda.NodeSlab {
	size := cuda.SlabSize{Nodes: len(g.Nodes)}
	for ni := range g.Nodes {
		nr := &g.Nodes[ni]
		size.Params += len(nr.Params)
		size.Deps += len(nr.Deps)
		for pi := range nr.Params {
			size.Bytes += nr.Params[pi].imageSize()
		}
	}
	return cuda.NewNodeSlab(size)
}

// imageSize is the byte size of the parameter's restored image: a
// device pointer for indirect index pointers, the constant otherwise.
func (p *ParamRecord) imageSize() int {
	if p.Pointer {
		return 8
	}
	return len(p.Raw)
}

// buildNode materializes one node in the graph's slab: kernel address
// plus parameter images.
func (r *Restorer) buildNode(slab *cuda.NodeSlab, id int, nr *NodeRecord) (*cuda.Node, error) {
	addr, err := r.resolveKernel(nr.KernelName)
	if err != nil {
		return nil, err
	}
	node := slab.Node(id, addr, len(nr.Params), len(nr.Deps))
	copy(node.Deps, nr.Deps)
	for pi := range nr.Params {
		p := &nr.Params[pi]
		img := slab.Image(node, pi, p.imageSize())
		if !p.Pointer {
			copy(img, p.Raw)
			continue
		}
		if !r.have[p.AllocIndex] {
			return nil, fmt.Errorf("param %d: indirect index %d was never allocated", pi, p.AllocIndex)
		}
		binary.LittleEndian.PutUint64(img, r.addr[p.AllocIndex]+p.Offset)
	}
	return node, nil
}

// resolveKernel finds the process-local address of a kernel by name.
func (r *Restorer) resolveKernel(name string) (uint64, error) {
	// Already loaded (a triggering-kernel or earlier resolution brought
	// its module in)?
	if k, ok := r.p.KernelByName(name); ok {
		return k.Addr(), nil
	}
	loc, ok := r.art.Kernels[name]
	if !ok {
		return 0, fmt.Errorf("kernel %q not in artifact kernel table", name)
	}
	if loc.Exported {
		// dlopen → dlsym → cudaGetFuncBySymbol (§5, the common path:
		// "Most of the kernels … can be restored in such a way").
		ll, err := r.p.Linker().Dlopen(loc.Library)
		if err != nil {
			return 0, err
		}
		h, err := r.p.Linker().Dlsym(ll, name)
		if err != nil {
			return 0, err
		}
		k, err := r.p.GetFuncBySymbol(h)
		if err != nil {
			return 0, err
		}
		return k.Addr(), nil
	}
	// Hidden kernel: search the modules the triggering-kernels loaded,
	// enumerating kernels and comparing names (cuModuleEnumerateFunctions
	// + cuFuncGetName).
	for _, m := range r.p.LoadedModules() {
		for _, k := range r.p.ModuleEnumerateFunctions(m) {
			if k.Name() == name {
				return k.Addr(), nil
			}
		}
	}
	return 0, fmt.Errorf("hidden kernel %q not found in any loaded module — triggering-kernels did not load it", name)
}
