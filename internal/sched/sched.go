// Package sched implements an iteration-level continuous-batching
// scheduler in the style of vLLM/Orca, layered on the paged KV cache
// of internal/kvcache. Each scheduling round ("iteration") admits
// waiting sequences up to a token budget, optionally splitting long
// prompts into chunks so prefills do not stall running decodes,
// advances every decoding sequence by one token, and — when the KV
// block pool is exhausted — preempts the lowest-id victim, releasing
// its blocks for recompute-on-resume.
//
// The scheduler is deliberately simulation-agnostic: it knows about
// tokens and blocks, not about virtual time or cost models. The
// serverless and cluster event loops call Plan at iteration start,
// price the returned prefill chunks and decode batch with the engine
// cost model, and call Finish when the priced interval elapses.
// Everything the scheduler does is a deterministic function of the
// call sequence: sequences carry monotonically assigned ids, all
// internal collections are slices or FIFO rings walked in order, and
// the KV manager's free list is restored byte-for-byte on rollback —
// so a fixed seed yields byte-identical schedules across runs and
// GOMAXPROCS settings.
package sched

import (
	"fmt"

	"github.com/medusa-repro/medusa/internal/eventq"
	"github.com/medusa-repro/medusa/internal/kvcache"
)

// Params configures one scheduler instance. The zero value disables
// batched execution (Enabled reports false), which is how the
// simulators keep their legacy whole-request admission path
// byte-identical when no batching knobs are set.
type Params struct {
	// BatchTokens is the per-iteration token budget (vLLM
	// max_num_batched_tokens). Every decoding sequence consumes one
	// budget token; the remainder is available for prefill chunks.
	// A value > 0 enables batched execution.
	BatchTokens int
	// KVBlocks sizes the paged KV pool in blocks of
	// kvcache.TokensPerBlock tokens. 0 lets the simulator derive it
	// from the instance profile's measured KV capacity.
	KVBlocks int
	// MaxSeqs caps concurrently running sequences (vLLM max_num_seqs).
	// 0 means unlimited.
	MaxSeqs int
	// ChunkedPrefill splits prompts across iterations so a long
	// prefill cannot monopolize the token budget; without it a prompt
	// is admitted whole, waiting for an iteration with no other
	// prefill when it exceeds the budget.
	ChunkedPrefill bool
}

// Enabled reports whether the parameters select batched execution.
func (p Params) Enabled() bool { return p.BatchTokens > 0 }

// State is a sequence's position in the scheduler's lifecycle.
type State int

// Scheduler lifecycle states. A sequence enters Waiting on admission
// to the scheduler's queue, moves to Prefilling when its first chunk
// is planned, to Decoding when its prefill target is reached, and to
// Finished when its last token is emitted. Preemption sends a
// Decoding or Prefilling sequence back to Waiting with its KV blocks
// released (recompute on resume).
const (
	StateWaiting State = iota
	StatePrefilling
	StateDecoding
	StateFinished
)

// String names the state for spans and debugging.
func (s State) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StatePrefilling:
		return "prefilling"
	case StateDecoding:
		return "decoding"
	case StateFinished:
		return "finished"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Seq is one sequence under scheduler management. Data carries the
// caller's request state; everything else is scheduler-owned.
type Seq[T any] struct {
	// Data is the caller's payload (the simulators store their
	// per-request state here).
	Data T

	id      uint64
	prompt  int // original prompt length in tokens
	output  int // tokens to generate
	target  int // prefill target: prompt + tokens to recompute after preemption
	filled  int // tokens prefilled toward target
	emitted int // tokens emitted so far (survives preemption)
	planned int // tokens planned for the in-flight iteration (0 = idle)
	state   State
	// preemptions counts how many times this sequence was evicted.
	preemptions int
}

// ID is the sequence's scheduler-assigned monotone id — the preemption
// policy's victim ordering key.
func (q *Seq[T]) ID() uint64 { return q.id }

// State reports the sequence's lifecycle state.
func (q *Seq[T]) State() State { return q.state }

// Preemptions reports how many times the sequence was preempted.
func (q *Seq[T]) Preemptions() int { return q.preemptions }

// Chunk is one planned prefill slice: Tokens of Seq's prompt (or
// recompute prefix) processed this iteration.
type Chunk[T any] struct {
	// Seq is the sequence the chunk belongs to.
	Seq *Seq[T]
	// Tokens is how many prompt tokens this chunk processes.
	Tokens int
}

// Iteration describes the work one scheduling round planned. Its
// slices alias scheduler-internal scratch buffers and are valid until
// the next Plan call.
type Iteration[T any] struct {
	// Chunks lists the prefill work, in admission order.
	Chunks []Chunk[T]
	// Decode lists the sequences advancing one decode step, in
	// running order.
	Decode []*Seq[T]
	// Admitted lists sequences newly admitted from the caller's queue
	// this round (resumed preemption victims are not re-listed).
	Admitted []*Seq[T]
	// Preemptions counts victims evicted while planning this round.
	Preemptions int
}

// Empty reports whether the round planned no work at all.
func (it Iteration[T]) Empty() bool { return len(it.Chunks) == 0 && len(it.Decode) == 0 }

// PrefillTokens sums the planned chunk sizes.
func (it Iteration[T]) PrefillTokens() int {
	n := 0
	for _, c := range it.Chunks {
		n += c.Tokens
	}
	return n
}

// Scheduler is one instance's iteration-level scheduler. It is not
// safe for concurrent use; the event loops serialize access.
type Scheduler[T any] struct {
	params Params
	kv     *kvcache.Manager
	nextID uint64

	// running holds Prefilling and Decoding sequences in admission
	// order (resumed victims re-enter at the tail, so the order is not
	// id-sorted; victim choice scans for the minimum id).
	running []*Seq[T]
	// preempted queues evicted sequences for resume, FIFO, ahead of
	// any new admission.
	preempted eventq.Deque[*Seq[T]]

	// Free-list of recycled Seq objects (PR 6 pooling idiom: steady
	// state allocates O(active sequences), not O(total)).
	freeSeqs []*Seq[T]

	// Iteration scratch, reused across rounds.
	chunks   []Chunk[T]
	decode   []*Seq[T]
	admitted []*Seq[T]
}

// New returns a scheduler over a fresh KV pool of p.KVBlocks blocks.
// Enabled parameters are required: callers gate on p.Enabled().
func New[T any](p Params) *Scheduler[T] {
	s := &Scheduler[T]{}
	s.Reset(p)
	return s
}

// Reset reinitializes the scheduler for a new instance, reusing the
// KV manager when the pool size is unchanged — the free-list idiom
// that lets the simulators recycle scheduler state with instance
// state.
func (s *Scheduler[T]) Reset(p Params) {
	s.params = p
	if s.kv == nil || s.kv.NumBlocks() != p.KVBlocks {
		s.kv = kvcache.NewManager(p.KVBlocks)
	} else {
		s.kv.Reset()
	}
	s.nextID = 0
	for _, q := range s.running {
		s.recycle(q)
	}
	s.running = s.running[:0]
	for s.preempted.Len() > 0 {
		s.recycle(s.preempted.PopFront())
	}
	s.chunks = s.chunks[:0]
	s.decode = s.decode[:0]
	s.admitted = s.admitted[:0]
}

// Running reports the number of sequences in the Prefilling or
// Decoding state.
func (s *Scheduler[T]) Running() int { return len(s.running) }

// PreemptedWaiting reports the number of evicted sequences awaiting
// resume.
func (s *Scheduler[T]) PreemptedWaiting() int { return s.preempted.Len() }

// Idle reports whether the scheduler holds no sequences at all.
func (s *Scheduler[T]) Idle() bool { return len(s.running) == 0 && s.preempted.Len() == 0 }

// KVFreeBlocks exposes the KV pool's free-block count (observability).
func (s *Scheduler[T]) KVFreeBlocks() int { return s.kv.NumFreeBlocks() }

// newSeq returns a zeroed sequence from the free-list.
func (s *Scheduler[T]) newSeq() *Seq[T] {
	if n := len(s.freeSeqs); n > 0 {
		q := s.freeSeqs[n-1]
		s.freeSeqs = s.freeSeqs[:n-1]
		return q
	}
	return &Seq[T]{}
}

// recycle zeroes a sequence (releasing the Data pointer promptly) and
// returns it to the free-list.
func (s *Scheduler[T]) recycle(q *Seq[T]) {
	*q = Seq[T]{}
	s.freeSeqs = append(s.freeSeqs, q)
}

// lowestRunning returns the running sequence with the smallest id —
// the deterministic preemption victim.
func (s *Scheduler[T]) lowestRunning() *Seq[T] {
	var victim *Seq[T]
	for _, q := range s.running {
		if victim == nil || q.id < victim.id {
			victim = q
		}
	}
	return victim
}

// preempt evicts a running sequence: its KV blocks are released, its
// prefill target grows to cover recomputing the tokens it had already
// generated, and it queues for resume ahead of new admissions.
func (s *Scheduler[T]) preempt(victim *Seq[T]) {
	s.kv.Release(victim.id)
	victim.state = StateWaiting
	victim.target = victim.prompt + victim.emitted
	victim.filled = 0
	victim.planned = 0
	victim.preemptions++
	for i, q := range s.running {
		if q == victim {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	s.preempted.PushBack(victim)
}

// maxFitTokens returns how many more tokens a sequence can grow by
// without exhausting the KV pool: the slack in its last block plus
// every free block.
func (s *Scheduler[T]) maxFitTokens(q *Seq[T]) int {
	held := s.kv.SeqLen(q.id)
	slack := kvcache.BlocksForTokens(held)*kvcache.TokensPerBlock - held
	return slack + s.kv.NumFreeBlocks()*kvcache.TokensPerBlock
}

// Plan runs one scheduling round. peek reports the head of the
// caller's waiting queue (prompt and output token counts); pop
// removes it, returning the payload — the scheduler only pops what it
// admits. The returned Iteration is the work to price and execute;
// Finish applies it. Plan returns an error when a single sequence
// cannot fit in the KV pool even alone — a configuration error, since
// no preemption schedule can serve it.
func (s *Scheduler[T]) Plan(peek func() (prompt, output int, ok bool), pop func() T) (Iteration[T], error) {
	s.chunks = s.chunks[:0]
	s.admitted = s.admitted[:0]
	preemptions := 0

	// Phase 1 — decode reservations, atomically for the whole decode
	// batch: every Decoding sequence extends by one token. On
	// exhaustion the whole reservation rolls back (restoring the
	// free list byte-for-byte), the lowest-id running sequence is
	// evicted, and the batch retries over the survivors. The retry
	// terminates: each pass shrinks the running set by one.
	for {
		s.decode = s.decode[:0]
		ok := true
		for _, q := range s.running {
			if q.state != StateDecoding {
				continue
			}
			if err := s.kv.Reserve(q.id, 1); err != nil {
				s.kv.Rollback()
				s.preempt(s.lowestRunning())
				preemptions++
				ok = false
				break
			}
			s.decode = append(s.decode, q)
		}
		if ok {
			s.kv.Commit()
			break
		}
	}
	for _, q := range s.decode {
		q.planned = 1
	}

	// Phases 2–3 plan prefill work. When every running sequence is a
	// stalled prefill (no chunk fit, no decode), evicting the lowest
	// victim frees blocks so the round makes progress; the loop
	// terminates because the running set shrinks each pass, and an
	// empty running set always admits the queue head (a lone
	// sequence's whole lifetime fits the pool by the admission check).
	for {
		budget := s.params.BatchTokens - len(s.decode)
		budget = s.continuePrefills(budget)
		if err := s.admitWaiting(budget, peek, pop); err != nil {
			return Iteration[T]{}, err
		}
		if len(s.chunks) > 0 || len(s.decode) > 0 || len(s.running) == 0 {
			break
		}
		s.preempt(s.lowestRunning())
		preemptions++
	}

	return Iteration[T]{
		Chunks:      s.chunks,
		Decode:      s.decode,
		Admitted:    s.admitted,
		Preemptions: preemptions,
	}, nil
}

// continuePrefills plans the next chunk of every mid-prefill sequence
// (chunked mode; whole-prompt admission never leaves a sequence
// Prefilling across rounds) and returns the remaining budget.
func (s *Scheduler[T]) continuePrefills(budget int) int {
	for _, q := range s.running {
		if q.state != StatePrefilling || budget <= 0 {
			continue
		}
		chunk := q.target - q.filled
		if s.params.ChunkedPrefill && chunk > budget {
			chunk = budget
		}
		if fit := s.maxFitTokens(q); chunk > fit {
			// Not enough blocks: take what fits (chunked) or stall.
			if !s.params.ChunkedPrefill {
				continue
			}
			chunk = fit
		}
		if chunk <= 0 || (!s.params.ChunkedPrefill && chunk > budget) {
			continue
		}
		if s.kv.Reserve(q.id, chunk) != nil {
			s.kv.Rollback()
			continue
		}
		s.kv.Commit()
		q.planned = chunk
		s.chunks = append(s.chunks, Chunk[T]{Seq: q, Tokens: chunk})
		budget -= chunk
	}
	return budget
}

// admitWaiting fills the remaining budget with resumed preemption
// victims first (FIFO — they arrived before anything still queued),
// then new sequences popped from the caller's queue.
func (s *Scheduler[T]) admitWaiting(budget int, peek func() (int, int, bool), pop func() T) error {
	for s.preempted.Len() > 0 && budget > 0 && s.roomForSeq() {
		q := s.preempted.Front()
		chunk, ok := s.admissionChunk(q.target, budget)
		if !ok || s.kv.Reserve(q.id, chunk) != nil {
			s.kv.Rollback()
			break // head-of-line: wait for completions to free blocks
		}
		s.kv.Commit()
		s.preempted.PopFront()
		q.state = StatePrefilling
		q.planned = chunk
		q.filled = 0
		s.running = append(s.running, q)
		s.chunks = append(s.chunks, Chunk[T]{Seq: q, Tokens: chunk})
		budget -= chunk
	}
	for s.preempted.Len() == 0 && budget > 0 && s.roomForSeq() {
		prompt, output, ok := peek()
		if !ok {
			break
		}
		if need := kvcache.BlocksForTokens(prompt + output); need > s.kv.NumBlocks() {
			return fmt.Errorf("sched: sequence needs %d KV blocks (prompt %d + output %d tokens), pool has %d",
				need, prompt, output, s.kv.NumBlocks())
		}
		q := s.newSeq()
		q.id = s.nextID
		chunk, ok := s.admissionChunk(prompt, budget)
		if !ok || s.kv.Reserve(q.id, chunk) != nil {
			s.kv.Rollback()
			s.recycle(q)
			break
		}
		s.kv.Commit()
		s.nextID++
		q.Data = pop()
		q.prompt = prompt
		q.output = output
		q.target = prompt
		q.filled = 0
		q.emitted = 0
		q.state = StatePrefilling
		q.planned = chunk
		s.running = append(s.running, q)
		s.chunks = append(s.chunks, Chunk[T]{Seq: q, Tokens: chunk})
		s.admitted = append(s.admitted, q)
		budget -= chunk
	}
	return nil
}

// Drain evicts every sequence from the scheduler — running order
// first, then queued preemption victims — invoking fn with each
// payload and releasing its KV blocks. The cluster simulator uses it
// for node-crash recovery: the caller requeues the payloads onto the
// deployment's pending queue for surviving instances to re-admit.
func (s *Scheduler[T]) Drain(fn func(data T)) {
	for _, q := range s.running {
		s.kv.Release(q.id)
		fn(q.Data)
		s.recycle(q)
	}
	s.running = s.running[:0]
	for s.preempted.Len() > 0 {
		q := s.preempted.PopFront()
		fn(q.Data)
		s.recycle(q)
	}
}

// roomForSeq reports whether MaxSeqs allows another running sequence.
func (s *Scheduler[T]) roomForSeq() bool {
	return s.params.MaxSeqs == 0 || len(s.running) < s.params.MaxSeqs
}

// admissionChunk sizes a sequence's first chunk under the remaining
// budget and KV free space. In chunked mode any positive slice is
// admissible; whole-prompt mode requires the full target within
// budget, except that the round's first prefill may exceed the budget
// (otherwise a prompt longer than BatchTokens could never be served).
func (s *Scheduler[T]) admissionChunk(target, budget int) (int, bool) {
	fit := s.kv.NumFreeBlocks() * kvcache.TokensPerBlock
	if s.params.ChunkedPrefill {
		chunk := target
		if chunk > budget {
			chunk = budget
		}
		if chunk > fit {
			chunk = fit
		}
		if chunk <= 0 {
			return 0, false
		}
		return chunk, true
	}
	if target > fit {
		return 0, false
	}
	if target > budget && len(s.chunks) > 0 {
		return 0, false
	}
	return target, true
}

// Finish applies a planned round after the caller has priced and
// elapsed it: prefilled chunks advance toward their targets, a
// completed prefill emits the sequence's first token (recomputed
// resumes emit their next token), and every decoded sequence emits
// one more. emit observes each token (data, tokens emitted so far);
// done observes each completed sequence after its final token, just
// before its KV blocks release and its state recycles. Both callbacks
// fire in running order — the deterministic metric-recording order.
func (s *Scheduler[T]) Finish(emit func(data T, emitted int), done func(data T)) {
	keep := s.running[:0]
	for _, q := range s.running {
		if q.planned == 0 { // stalled prefill: no work this round
			keep = append(keep, q)
			continue
		}
		if q.state == StatePrefilling {
			q.filled += q.planned
			q.planned = 0
			if q.filled < q.target {
				keep = append(keep, q)
				continue
			}
			q.state = StateDecoding
		} else {
			q.planned = 0
		}
		q.emitted++
		emit(q.Data, q.emitted)
		if q.emitted >= q.output {
			q.state = StateFinished
			s.kv.Release(q.id)
			done(q.Data)
			s.recycle(q)
			continue
		}
		keep = append(keep, q)
	}
	s.running = keep
}
