package medusa

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/dl"
	"github.com/medusa-repro/medusa/internal/replicate"
)

// Pointer-looking 8-byte scalars carry a high canonical address prefix.
// The range below covers the device heap and stays below the library
// text segments; false positives inside it are possible (which is why
// validation exists) but rare, matching the paper's observation.
const (
	ptrPrefixLo = uint64(0x7f00_0000_0000)
	ptrPrefixHi = uint64(0x8000_0000_0000)
)

// looksLikePointer applies the §4 heuristic: 8 bytes wide and a high
// address prefix.
func looksLikePointer(raw []byte) (uint64, bool) {
	if len(raw) != 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(raw)
	return v, v >= ptrPrefixLo && v < ptrPrefixHi
}

// AnalyzeOptions tunes the analysis stage.
type AnalyzeOptions struct {
	// ModelName stamps the artifact.
	ModelName string
	// NaiveFirstMatch replaces the trace-based backward matching with a
	// forward first-match over the allocation sequence — the strawman of
	// §4.1/Figure 6 that produces false positives under address reuse.
	// Exists for the ablation benchmark only.
	NaiveFirstMatch bool
	// SkipContents omits permanent buffer contents (forced for
	// cost-only devices, where there is no data plane).
	SkipContents bool
	// LinearMatch forces the O(events) linear walkers
	// (backwardMatch/firstMatch) instead of the interval index — the
	// original implementation, kept as the reference oracle for the
	// property tests and the wall-clock ablation benchmarks.
	LinearMatch bool
	// Parallelism caps the per-graph analysis worker pool; 0 uses
	// GOMAXPROCS. The encoded artifact is bit-identical for any value
	// (the artifact is CRC'd and stored, so the merge is deterministic).
	Parallelism int
}

// Analyze synthesizes the recorder's observations into an Artifact: the
// paper's offline analysis stage.
func Analyze(rec *Recorder, proc *cuda.Process, opts AnalyzeOptions) (*Artifact, error) {
	if err := rec.check(); err != nil {
		return nil, err
	}
	art := &Artifact{
		FormatVersion: CurrentFormatVersion,
		ModelName:     opts.ModelName,
		PrefixLen:     rec.captureStageBegin,
		Kernels:       make(map[string]KernelLoc),
		KV:            rec.kv,
	}

	// Materialize the (de)allocation sequence up to the capture stage
	// end. Later events (post-capture serving activity, if any) are not
	// part of the cold start being materialized.
	allocCount := 0
	for _, ev := range rec.events[:rec.captureStageEnd] {
		art.AllocSeq = append(art.AllocSeq, AllocRecord{
			Free:       ev.free,
			AllocIndex: ev.allocIndex,
			Size:       ev.size,
			Label:      ev.label,
		})
		if !ev.free {
			allocCount++
		}
	}
	art.AllocCount = allocCount

	// Materialize each captured graph. The 35 per-batch-size graphs are
	// independent, so node/param classification fans out across a worker
	// pool; the merge below is index-ordered, keeping the artifact
	// bit-identical regardless of worker count.
	var ix *TraceIndex
	if !opts.LinearMatch {
		ix = rec.Index()
	}
	var outs []graphAnalysis
	if len(rec.graphs) > 0 {
		// analyzeGraph carries its error in the result, so Run cannot fail.
		outs, _ = replicate.Run(len(rec.graphs), opts.Parallelism, func(gi int) (graphAnalysis, error) {
			return analyzeGraph(rec, proc, ix, opts, gi), nil
		})
	}

	// Deterministic merge, in captured-graph order. The kernel table is
	// a map (sorted at encode time) and referenced indices only feed the
	// permanent-buffer set, so merge order cannot leak into the bytes;
	// errors surface in graph order so failures are stable too.
	referenced := make(map[int]bool) // alloc indices referenced by pointers
	for gi := range outs {
		o := &outs[gi]
		if o.err != nil {
			return nil, o.err
		}
		art.Graphs = append(art.Graphs, o.gr)
		for idx := range o.referenced {
			referenced[idx] = true
		}
		for name, loc := range o.kernels {
			art.Kernels[name] = loc
		}
	}

	// Buffer content classification (§4.3). Only capture-stage
	// allocations that are still live at capture end and referenced by
	// some graph need their contents saved.
	if err := classifyPermanent(rec, proc, art, referenced, opts.SkipContents); err != nil {
		return nil, err
	}

	if err := art.validate(); err != nil {
		return nil, fmt.Errorf("medusa: analysis produced inconsistent artifact: %w", err)
	}
	return art, nil
}

// graphAnalysis is one worker's output for one captured graph.
type graphAnalysis struct {
	gr         GraphRecord
	referenced map[int]bool
	kernels    map[string]KernelLoc
	err        error
}

// analyzeGraph materializes one captured graph: node topology, kernel
// locations, and constant-vs-pointer classification of every parameter
// via the §4.1 indirect index pointer analysis. It only reads shared
// state (the recorder's events, the index, the process's kernel and
// symbol tables), so any number of instances may run concurrently.
func analyzeGraph(rec *Recorder, proc *cuda.Process, ix *TraceIndex, opts AnalyzeOptions, gi int) graphAnalysis {
	cg := rec.graphs[gi]
	out := graphAnalysis{
		gr:         GraphRecord{Batch: cg.batch},
		referenced: make(map[int]bool),
		kernels:    make(map[string]KernelLoc),
	}
	match := func(eventPos int, p uint64) (int, uint64, bool) {
		switch {
		case opts.NaiveFirstMatch && opts.LinearMatch:
			return rec.firstMatch(p)
		case opts.NaiveFirstMatch:
			return ix.FirstMatch(p)
		case opts.LinearMatch:
			return rec.backwardMatch(eventPos, p)
		default:
			return ix.BackwardMatch(eventPos, p)
		}
	}
	// The graph's records share one backing slice per kind, handed out
	// as capacity-capped sub-slices.
	nodes := cg.graph.Nodes()
	var nParams, nBytes, nDeps int
	for _, node := range nodes {
		nParams += len(node.Params)
		nDeps += len(node.Deps)
		for _, raw := range node.Params {
			nBytes += len(raw)
		}
	}
	params, raws, deps := make([]ParamRecord, nParams), make([]byte, nBytes), make([]int, nDeps)
	out.gr.Nodes = make([]NodeRecord, 0, len(nodes))
	for ni, node := range nodes {
		l := cg.launches[ni]
		nr := NodeRecord{Deps: take(&deps, len(node.Deps)), Params: take(&params, len(node.Params))}
		copy(nr.Deps, node.Deps)

		k, ok := proc.KernelByAddr(node.KernelAddr)
		if !ok {
			out.err = fmt.Errorf("medusa: graph %d node %d: no kernel at %#x", cg.batch, ni, node.KernelAddr)
			return out
		}
		nr.KernelName = k.Name()
		if _, seen := out.kernels[nr.KernelName]; !seen {
			loc, err := locateKernel(proc.Runtime().DL(), nr.KernelName)
			if err != nil {
				out.err = err
				return out
			}
			out.kernels[nr.KernelName] = loc
		}

		for pi, raw := range node.Params {
			pr := &nr.Params[pi]
			pr.Raw = take(&raws, len(raw))
			copy(pr.Raw, raw)
			if p, isPtr := looksLikePointer(raw); isPtr {
				if idx, off, found := match(l.eventPos, p); found {
					pr.Pointer = true
					pr.AllocIndex = idx
					pr.Offset = off
					out.referenced[idx] = true
				}
				// A high-prefix scalar matching no allocation stays
				// a constant: its value is not an address Medusa
				// manages. Validation forwarding covers the case
				// where this speculation is wrong.
			}
		}
		out.gr.Nodes = append(out.gr.Nodes, nr)
	}
	return out
}

// take returns the first n elements of *s as a capacity-capped
// sub-slice, nil when n is 0, and advances *s past them.
func take[T any](s *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}

// locateKernel records how the online phase can find a kernel: its
// library, and whether dlsym will resolve it there. This inspects the
// on-disk symbol tables (available offline), never process state.
func locateKernel(reg *dl.Registry, name string) (KernelLoc, error) {
	lib, sym, ok := reg.FindSymbol(name)
	if !ok {
		return KernelLoc{}, fmt.Errorf("medusa: kernel %q not found in any installed library", name)
	}
	return KernelLoc{Library: lib.Name, Exported: sym.Exported}, nil
}

// backwardMatch implements the paper's trace-based indirect index
// pointer analysis: starting from the launch's position in the event
// stream, walk backwards and return the first allocation whose range
// contains p. Because kernels only use buffers that are live at launch,
// the nearest preceding allocation is the right one even when freed
// buffers were reallocated at the same address (Figure 6).
func (r *Recorder) backwardMatch(eventPos int, p uint64) (allocIndex int, offset uint64, ok bool) {
	for i := eventPos - 1; i >= 0; i-- {
		ev := r.events[i]
		if ev.free {
			continue
		}
		if p >= ev.addr && p < ev.addr+ev.size {
			return ev.allocIndex, p - ev.addr, true
		}
	}
	return 0, 0, false
}

// firstMatch is the naive strawman: scan the allocation sequence from
// the beginning and take the first range containing p, ignoring launch
// position. Under address reuse this picks the wrong (earlier, freed)
// allocation.
func (r *Recorder) firstMatch(p uint64) (allocIndex int, offset uint64, ok bool) {
	for _, ev := range r.events {
		if ev.free {
			continue
		}
		if p >= ev.addr && p < ev.addr+ev.size {
			return ev.allocIndex, p - ev.addr, true
		}
	}
	return 0, 0, false
}

// classifyPermanent implements §4.3: among capture-stage allocations,
// those freed before the stage ends are temporaries (replayed but
// content-free); those still live and referenced by a graph are
// permanent and have their contents saved.
func classifyPermanent(rec *Recorder, proc *cuda.Process, art *Artifact, referenced map[int]bool, skipContents bool) error {
	type allocState struct {
		addr  uint64
		size  uint64
		pos   int // event position of the allocation
		freed bool
	}
	states := make(map[int]*allocState)
	for pos, ev := range rec.events[:rec.captureStageEnd] {
		if ev.free {
			if st := states[ev.allocIndex]; st != nil {
				st.freed = true
			}
			continue
		}
		states[ev.allocIndex] = &allocState{addr: ev.addr, size: ev.size, pos: pos}
	}
	for idx, st := range states {
		if st.pos < rec.captureStageBegin || st.freed || !referenced[idx] {
			continue
		}
		pr := PermRecord{AllocIndex: idx, Size: st.size}
		if !skipContents {
			buf, ok := proc.Device().Buffer(st.addr)
			if !ok {
				return fmt.Errorf("medusa: permanent allocation %d at %#x vanished", idx, st.addr)
			}
			contents, err := buf.Snapshot()
			if err != nil {
				return fmt.Errorf("medusa: snapshot permanent allocation %d: %w", idx, err)
			}
			pr.Contents = contents
		}
		art.Permanent = append(art.Permanent, pr)
	}
	// Deterministic artifact: order by allocation index.
	sort.Slice(art.Permanent, func(i, j int) bool {
		return art.Permanent[i].AllocIndex < art.Permanent[j].AllocIndex
	})
	return nil
}
