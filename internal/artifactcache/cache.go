// Package artifactcache is the cluster-scale tiered cache for Medusa
// artifacts. At fleet scale the economics of §2.4 invert the question:
// not "how fast is a cold start" but "which node already holds the
// (model, strategy) artifact, and in which tier". Each node caches
// encoded artifacts in two local tiers — host page cache (RAM speed)
// and node-local SSD (the calibrated Optane array timing) — backed by
// a shared remote registry reached over a configurable network. All
// timing is virtual (vclock offsets); the package never reads a wall
// clock and keeps no hidden randomness, so fixed-seed cluster runs are
// bit-identical.
//
// Eviction is policy-driven per tier (LRU, LFU, or the GDSF-style
// cost-aware policy), and concurrent cold-start fetches for the same
// artifact are singleflight-deduplicated: one transfer is charged, and
// every overlapping requester completes when it lands.
package artifactcache

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// Tier identifies where a fetch was served from.
type Tier int

const (
	// TierNone means the artifact is nowhere on the node.
	TierNone Tier = iota
	// TierRAM is the node's host page cache.
	TierRAM
	// TierSSD is the node-local SSD array.
	TierSSD
	// TierRemote is the shared artifact registry across the network.
	TierRemote
)

// String names the tier for stats and placement rendering.
func (t Tier) String() string {
	switch t {
	case TierRAM:
		return "ram"
	case TierSSD:
		return "ssd"
	case TierRemote:
		return "remote"
	}
	return "none"
}

// Params sizes and times a node's local tiers.
type Params struct {
	// RAMBytes / SSDBytes are the per-tier capacities. A zero capacity
	// disables the tier (every lookup falls through).
	RAMBytes, SSDBytes uint64
	// RAM times the host-page-cache tier.
	RAM storage.Array
	// SSD times the node-local SSD tier.
	SSD storage.Array
	// Policy selects the eviction policy for both local tiers.
	Policy PolicyKind
}

// DefaultParams returns the calibrated node: 4 GiB of page cache and
// 16 GiB of SSD set aside for artifacts, RAM at memcpy-class bandwidth,
// SSD at the paper's Optane array timing.
func DefaultParams() Params {
	return Params{
		RAMBytes: 4 << 30,
		SSDBytes: 16 << 30,
		RAM:      storage.Array{Bandwidth: 80e9, Latency: 2 * time.Microsecond},
		SSD:      storage.DefaultArray(),
	}
}

// Registry is the shared remote tier: the cluster-wide artifact store
// every node cache falls back to, reached over a network link.
type Registry struct {
	net storage.Array

	mu      sync.Mutex
	sizes   map[string]uint64
	content map[string][]byte
}

// DefaultNetwork returns the calibrated registry link: 25 GbE at
// ~2.5 GB/s effective with a 1 ms request round trip.
func DefaultNetwork() storage.Array {
	return storage.Array{Bandwidth: 2.5e9, Latency: time.Millisecond}
}

// NewRegistry creates an empty registry behind the given network link.
func NewRegistry(net storage.Array) *Registry {
	return &Registry{net: net, sizes: make(map[string]uint64), content: make(map[string][]byte)}
}

// Register publishes an artifact's bytes.
func (r *Registry) Register(name string, data []byte) {
	r.mu.Lock()
	r.content[name] = append([]byte(nil), data...)
	r.sizes[name] = uint64(len(data))
	r.mu.Unlock()
}

// RegisterSized publishes a content-free artifact of a declared size —
// enough for timing-only simulation.
func (r *Registry) RegisterSized(name string, size uint64) {
	r.mu.Lock()
	r.content[name] = nil
	r.sizes[name] = size
	r.mu.Unlock()
}

// Size reports a registered artifact's size.
func (r *Registry) Size(name string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sz, ok := r.sizes[name]
	return sz, ok
}

// Peek returns a registered artifact's bytes without charging time
// (nil for content-free registrations).
func (r *Registry) Peek(name string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.content[name]
	if !ok {
		if _, sized := r.sizes[name]; !sized {
			return nil, false
		}
		return nil, true
	}
	if data == nil {
		return nil, true
	}
	return append([]byte(nil), data...), true
}

// Names lists registered artifacts in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.sizes))
	for k := range r.sizes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FetchDuration is the virtual time a network transfer of n bytes takes.
func (r *Registry) FetchDuration(n uint64) time.Duration { return r.net.ReadDuration(n) }

// Stats counts one node cache's traffic. The conservation invariant —
// RAMHits + SSDHits + Misses + Coalesced == every Fetch call that
// found a registered artifact — is property-tested at fleet scale.
type Stats struct {
	// RAMHits / SSDHits count fetches served from a local tier.
	RAMHits, SSDHits int
	// Misses counts remote-registry transfers actually charged.
	Misses int
	// Coalesced counts fetches that piggybacked on an in-flight
	// transfer of the same artifact (singleflight deduplication): no
	// extra bytes moved, completion at the first transfer's instant.
	Coalesced int
	// RAMEvictions / SSDEvictions count policy evictions per tier.
	RAMEvictions, SSDEvictions int
	// BytesFetched totals remote-transfer bytes (deduplicated fetches
	// charge nothing).
	BytesFetched uint64
	// TimedOut counts fetches abandoned after the fault plan's retry
	// budget: every attempt of the remote transfer timed out (injected
	// SiteRegistryTimeout). Zero without a fault injector.
	TimedOut int
	// Retries counts extra fetch attempts taken after an injected
	// timeout or SSD read error (backoff waits on the virtual clock).
	Retries int
	// SSDReadErrors counts injected SSD-tier read failures
	// (SiteSSDRead); after the retry budget the fetch falls through to
	// the remote registry, so these are not terminal.
	SSDReadErrors int
}

// Requests is the total artifact fetches the node served, including
// those abandoned as timed out.
func (s Stats) Requests() int { return s.RAMHits + s.SSDHits + s.Misses + s.Coalesced + s.TimedOut }

// HitRate is the fraction of fetches served without a remote transfer
// of their own (local hits; coalesced fetches count as neither hit nor
// miss in the numerator).
func (s Stats) HitRate() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.RAMHits+s.SSDHits) / float64(s.Requests())
}

// Add accumulates another node's stats (for cluster-wide totals).
func (s *Stats) Add(o Stats) {
	s.RAMHits += o.RAMHits
	s.SSDHits += o.SSDHits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.RAMEvictions += o.RAMEvictions
	s.SSDEvictions += o.SSDEvictions
	s.BytesFetched += o.BytesFetched
	s.TimedOut += o.TimedOut
	s.Retries += o.Retries
	s.SSDReadErrors += o.SSDReadErrors
}

// entry is one artifact's residency and policy bookkeeping. Stats are
// shared across tiers (full reference history, like a ghost list), so
// an artifact evicted from RAM re-enters with its popularity intact.
type entry struct {
	key   string
	size  uint64
	cost  time.Duration
	freq  int
	last  int
	inRAM bool
	inSSD bool
}

func (e *entry) stats() EntryStats {
	return EntryStats{Key: e.key, Size: e.size, Cost: e.cost, Freq: e.freq, LastSeq: e.last}
}

// FetchResult describes one artifact fetch.
type FetchResult struct {
	// Ready is the virtual instant the artifact is resident in host
	// memory and loading can proceed.
	Ready time.Duration
	// Tier is where the fetch was served from.
	Tier Tier
	// Coalesced reports singleflight deduplication onto an in-flight
	// transfer.
	Coalesced bool
	// Bytes is the artifact's encoded size.
	Bytes uint64
}

// NodeCache is one node's two local tiers in front of the shared
// registry. Safe for concurrent use; the cluster simulator drives it
// from a single event loop, and the concurrent warm-up path records
// content-sorted spans, so traces stay deterministic either way.
type NodeCache struct {
	name   string
	params Params
	remote *Registry

	mu        sync.Mutex
	seq       int
	entries   map[string]*entry
	ramUsed   uint64
	ssdUsed   uint64
	ramPolicy Policy
	ssdPolicy Policy
	inflight  map[string]time.Duration // key -> transfer completion instant
	stats     Stats

	tracer *obs.Tracer
	track  string
	reg    *obs.Registry
	inj    *faults.Injector
}

// NewNodeCache creates a node cache over the shared registry.
func NewNodeCache(name string, params Params, remote *Registry) *NodeCache {
	return &NodeCache{
		name:      name,
		params:    params,
		remote:    remote,
		entries:   make(map[string]*entry),
		ramPolicy: params.Policy.New(),
		ssdPolicy: params.Policy.New(),
		inflight:  make(map[string]time.Duration),
		track:     "storage/cache/" + name,
	}
}

// Name returns the node cache's label.
func (c *NodeCache) Name() string { return c.name }

// RoundTrip is the registry link's request latency: what a request
// answered without a payload (a 404) costs.
func (c *NodeCache) RoundTrip() time.Duration { return c.remote.net.Latency }

// SetObs attaches observability: fetch spans land on the
// "storage/cache/<name>" track of the tracer, and per-tier hit / miss /
// eviction counters increment in the registry (prefix "cache_").
// Either may be nil.
func (c *NodeCache) SetObs(tracer *obs.Tracer, reg *obs.Registry) {
	c.mu.Lock()
	c.tracer = tracer
	c.reg = reg
	c.mu.Unlock()
}

// SetFaults attaches a fault injector: Fetch then rolls registry
// timeouts on remote transfers and read errors on SSD-tier hits,
// retrying within the plan's budget with capped exponential backoff in
// virtual time. Exhausted remote retries surface a typed
// *faults.FetchTimeoutError (with Ready set to the instant the failure
// was known, so callers can charge the wasted time); exhausted SSD
// retries drop the node's SSD copy and fall through to the remote
// path. A nil injector restores fault-free behavior.
func (c *NodeCache) SetFaults(inj *faults.Injector) {
	c.mu.Lock()
	c.inj = inj
	c.mu.Unlock()
}

// count increments an obs counter if a registry is attached.
// Callers hold c.mu.
func (c *NodeCache) count(name string) {
	if c.reg != nil {
		c.reg.Counter(name).Inc()
	}
}

// span records one fetch on the cache's storage track. The span's
// content (object, tier, bytes, coalesced flag) fully identifies it,
// which is what keeps concurrent instrumented use deterministic under
// the exporters' content sort. Callers hold c.mu.
func (c *NodeCache) span(key string, start, end time.Duration, tier Tier, coalesced bool, bytes uint64) {
	if c.tracer == nil {
		return
	}
	// Phase matches engine.StageArtifactFetch.
	c.tracer.RecordSpan(c.track, "fetch", "artifact_fetch", start, end,
		obs.Attr{Key: "object", Value: key},
		obs.Attr{Key: "tier", Value: tier.String()},
		obs.Attr{Key: "bytes", Value: fmt.Sprint(bytes)},
		obs.Attr{Key: "coalesced", Value: fmt.Sprint(coalesced)})
}

// touch records an access for the eviction policies.
func (c *NodeCache) touch(e *entry) {
	c.seq++
	e.freq++
	e.last = c.seq
}

// Locate reports the best tier holding the artifact, without side
// effects on policy state. An in-flight transfer reports TierRemote
// with ok=true: the artifact is moments from resident, which placement
// treats as near-locality.
func (c *NodeCache) Locate(key string, now time.Duration) (Tier, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.inRAM {
			return TierRAM, true
		}
		if e.inSSD {
			return TierSSD, true
		}
	}
	if ready, ok := c.inflight[key]; ok && now < ready {
		return TierRemote, true
	}
	return TierNone, false
}

// Fetch obtains the artifact at virtual instant now, returning when it
// is resident in host memory and which tier served it. Misses charge a
// remote transfer and install the artifact write-through into both
// local tiers; a fetch overlapping an in-flight transfer of the same
// key coalesces onto it.
func (c *NodeCache) Fetch(now time.Duration, key string) (FetchResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if ready, ok := c.inflight[key]; ok {
		if now < ready {
			e := c.entries[key]
			if e == nil {
				return FetchResult{}, fmt.Errorf("artifactcache: in-flight %q without entry", key)
			}
			c.touch(e)
			c.stats.Coalesced++
			c.count("cache_coalesced")
			c.span(key, now, ready, TierRemote, true, e.size)
			return FetchResult{Ready: ready, Tier: TierRemote, Coalesced: true, Bytes: e.size}, nil
		}
		delete(c.inflight, key)
	}

	if e, ok := c.entries[key]; ok && e.inRAM {
		c.touch(e)
		c.stats.RAMHits++
		c.count("cache_ram_hits")
		ready := now + c.params.RAM.ReadDuration(e.size)
		c.span(key, now, ready, TierRAM, false, e.size)
		return FetchResult{Ready: ready, Tier: TierRAM, Bytes: e.size}, nil
	}
	if e, ok := c.entries[key]; ok && e.inSSD {
		c.touch(e)
		delay, served := c.ssdReadFaults(key, e.size)
		if served {
			c.stats.SSDHits++
			c.count("cache_ssd_hits")
			ready := now + delay + c.params.SSD.ReadDuration(e.size)
			c.insertRAM(e)
			c.span(key, now, ready, TierSSD, false, e.size)
			return FetchResult{Ready: ready, Tier: TierSSD, Bytes: e.size}, nil
		}
		// Every SSD attempt failed: the local copy is untrustworthy, so
		// drop it and fall through to the remote registry, carrying the
		// wasted attempt time forward.
		e.inSSD = false
		c.ssdUsed -= e.size
		c.gauge("cache_ssd_bytes", c.ssdUsed)
		now += delay
	}

	size, ok := c.remote.Size(key)
	if !ok {
		return FetchResult{}, fmt.Errorf("artifactcache: artifact %q not in registry", key)
	}
	cost := c.remote.FetchDuration(size)
	if delay, served := c.remoteTimeouts(key, cost); !served {
		// Retry budget exhausted: report when the failure was known so
		// callers can charge the wasted time, and leave tiers untouched.
		c.stats.TimedOut++
		c.count("cache_fetch_timed_out")
		ready := now + delay
		c.span(key, now, ready, TierNone, false, 0)
		return FetchResult{Ready: ready, Tier: TierRemote, Bytes: size},
			&faults.FetchTimeoutError{Key: key, Attempts: c.inj.MaxAttempts()}
	} else { //nolint:revive // keep the happy path inside the else to scope delay
		now += delay
	}
	e, ok := c.entries[key]
	if !ok {
		e = &entry{key: key, size: size, cost: cost}
		c.entries[key] = e
	}
	c.touch(e)
	c.stats.Misses++
	c.stats.BytesFetched += size
	c.count("cache_misses")
	c.insertSSD(e)
	c.insertRAM(e)
	ready := now + cost
	c.inflight[key] = ready
	c.span(key, now, ready, TierRemote, false, size)
	return FetchResult{Ready: ready, Tier: TierRemote, Bytes: size}, nil
}

// FetchPair obtains a template-factored artifact: the per-model delta
// under key plus the shared per-architecture template under tmplKey.
// Both transfers start at now in parallel (the node daemon pulls them
// over independent connections) and the pair is ready when the later
// one lands; each is cached, evicted and deduplicated as its own entry,
// so one resident template serves every sibling model's delta. The
// reported Tier and Coalesced describe the delta's fetch — the
// per-model cost the placement policies reason about — while Ready and
// Bytes cover the pair. An empty tmplKey degenerates to Fetch. A
// template absent from the registry surfaces a typed
// *faults.TemplateMissingError after one registry round trip (the 404),
// so callers can degrade to a vanilla cold start.
func (c *NodeCache) FetchPair(now time.Duration, key, tmplKey string) (FetchResult, error) {
	if tmplKey == "" {
		return c.Fetch(now, key)
	}
	if _, ok := c.remote.Size(tmplKey); !ok {
		res := FetchResult{Ready: now + c.remote.FetchDuration(0), Tier: TierRemote}
		return res, &faults.TemplateMissingError{Key: key, Template: tmplKey}
	}
	tres, err := c.Fetch(now, tmplKey)
	if err != nil {
		return tres, err
	}
	dres, err := c.Fetch(now, key)
	if err != nil {
		return dres, err
	}
	if tres.Ready > dres.Ready {
		dres.Ready = tres.Ready
	}
	dres.Bytes += tres.Bytes
	return dres, nil
}

// ssdReadFaults rolls the SSD-tier read fault per attempt, returning
// the accumulated failed-read and backoff time and whether any attempt
// finally served. Callers hold c.mu.
func (c *NodeCache) ssdReadFaults(key string, size uint64) (time.Duration, bool) {
	if c.inj == nil {
		return 0, true
	}
	attempts := c.inj.MaxAttempts()
	var delay time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if !c.inj.Inject(faults.SiteSSDRead, key) {
			return delay, true
		}
		c.stats.SSDReadErrors++
		c.count("cache_ssd_read_errors")
		delay += c.params.SSD.ReadDuration(size)
		if attempt+1 < attempts {
			c.stats.Retries++
			c.count("cache_fetch_retries")
			delay += c.inj.Backoff(faults.SiteSSDRead, key, attempt)
		}
	}
	return delay, false
}

// remoteTimeouts rolls the registry-timeout fault per transfer
// attempt, returning the accumulated timeout and backoff time and
// whether any attempt finally went through. Callers hold c.mu.
func (c *NodeCache) remoteTimeouts(key string, cost time.Duration) (time.Duration, bool) {
	if c.inj == nil {
		return 0, true
	}
	attempts := c.inj.MaxAttempts()
	var delay time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if !c.inj.Inject(faults.SiteRegistryTimeout, key) {
			return delay, true
		}
		c.count("cache_fetch_timeouts")
		delay += c.inj.TimeoutDelay(cost)
		if attempt+1 < attempts {
			c.stats.Retries++
			c.count("cache_fetch_retries")
			delay += c.inj.Backoff(faults.SiteRegistryTimeout, key, attempt)
		}
	}
	return delay, false
}

// Discard drops any local copies of an artifact and forgets in-flight
// state — callers that find a fetched artifact corrupt evict it so the
// next fetch re-pulls fresh bytes from the registry. Popularity
// history is kept, as with an ordinary eviction.
func (c *NodeCache) Discard(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	if e.inRAM {
		e.inRAM = false
		c.ramUsed -= e.size
		c.gauge("cache_ram_bytes", c.ramUsed)
	}
	if e.inSSD {
		e.inSSD = false
		c.ssdUsed -= e.size
		c.gauge("cache_ssd_bytes", c.ssdUsed)
	}
	delete(c.inflight, key)
	c.count("cache_discards")
}

// MarkLost empties both local tiers and forgets every in-flight
// transfer: the node crashed, and its page cache and SSD contents are
// gone with it. Stats accumulated so far are preserved for the final
// report.
func (c *NodeCache) MarkLost() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		e.inRAM = false
		e.inSSD = false
	}
	c.ramUsed = 0
	c.ssdUsed = 0
	c.inflight = make(map[string]time.Duration)
	c.gauge("cache_ram_bytes", 0)
	c.gauge("cache_ssd_bytes", 0)
	c.count("cache_tiers_lost")
}

// Preload installs an artifact into the node's SSD tier at no virtual
// cost — the operator pre-pulled it before the trace starts (cluster
// Config.PrewarmSSD). Policy bookkeeping counts it as one access.
func (c *NodeCache) Preload(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	size, ok := c.remote.Size(key)
	if !ok {
		return fmt.Errorf("artifactcache: artifact %q not in registry", key)
	}
	e, ok := c.entries[key]
	if !ok {
		e = &entry{key: key, size: size, cost: c.remote.FetchDuration(size)}
		c.entries[key] = e
	}
	c.touch(e)
	c.insertSSD(e)
	c.span(key, 0, 0, TierSSD, false, size)
	return nil
}

// Stats snapshots the node's counters.
func (c *NodeCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get implements engine.ArtifactSource: it charges the tier-dependent
// fetch latency on the clock and returns the artifact's bytes from the
// registry. Content-free (sized-only) registrations return an error —
// timing-only simulation should use Fetch directly.
func (c *NodeCache) Get(clock *vclock.Clock, name string) ([]byte, error) {
	res, err := c.Fetch(clock.Now(), name)
	if err != nil {
		// A timed-out fetch still burned its attempts: charge that time
		// before surfacing the typed error.
		if res.Ready > clock.Now() {
			clock.AdvanceTo(res.Ready)
		}
		return nil, err
	}
	clock.AdvanceTo(res.Ready)
	data, ok := c.remote.Peek(name)
	if !ok {
		return nil, fmt.Errorf("artifactcache: artifact %q vanished from registry", name)
	}
	if data == nil {
		return nil, fmt.Errorf("artifactcache: artifact %q registered without contents", name)
	}
	return data, nil
}

// insertRAM / insertSSD install an entry into a tier, evicting by
// policy score until it fits. Admission is policy-gated: if a would-be
// victim outranks the entry being inserted, the insert is abandoned
// instead — that is what lets the cost-aware policy hold a popular
// artifact through a scan of one-shot large ones (under LRU the
// newcomer is always the most recent touch, so it always wins and the
// classic behavior is preserved). An artifact larger than the whole
// tier is simply not cached there.
func (c *NodeCache) insertRAM(e *entry) {
	if e.inRAM || e.size > c.params.RAMBytes {
		return
	}
	for c.ramUsed+e.size > c.params.RAMBytes {
		if !c.evictOne(c.ramPolicy, e, func(x *entry) *bool { return &x.inRAM }, &c.ramUsed) {
			return
		}
		c.stats.RAMEvictions++
		c.count("cache_evictions_ram")
	}
	e.inRAM = true
	c.ramUsed += e.size
	c.gauge("cache_ram_bytes", c.ramUsed)
}

func (c *NodeCache) insertSSD(e *entry) {
	if e.inSSD || e.size > c.params.SSDBytes {
		return
	}
	for c.ssdUsed+e.size > c.params.SSDBytes {
		if !c.evictOne(c.ssdPolicy, e, func(x *entry) *bool { return &x.inSSD }, &c.ssdUsed) {
			return
		}
		c.stats.SSDEvictions++
		c.count("cache_evictions_ssd")
	}
	e.inSSD = true
	c.ssdUsed += e.size
	c.gauge("cache_ssd_bytes", c.ssdUsed)
}

func (c *NodeCache) gauge(name string, v uint64) {
	if c.reg != nil {
		c.reg.Gauge(name).Update(float64(v))
	}
}

// evictOne removes the lowest-scored resident entry from a tier,
// returning false if nothing is evictable OR the lowest-scored
// resident still outranks the entry being inserted (admission denied).
// Candidates are scanned in sorted key order, so equal scores break
// deterministically on the smaller key.
func (c *NodeCache) evictOne(pol Policy, inserting *entry, resident func(*entry) *bool, used *uint64) bool {
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var victim *entry
	var victimScore float64
	for _, k := range keys {
		e := c.entries[k]
		if e == inserting || !*resident(e) {
			continue
		}
		s := pol.Score(e.stats())
		if victim == nil || s < victimScore {
			victim = e
			victimScore = s
		}
	}
	if victim == nil || victimScore >= pol.Score(inserting.stats()) {
		return false
	}
	pol.OnEvict(victimScore)
	*resident(victim) = false
	*used -= victim.size
	return true
}
