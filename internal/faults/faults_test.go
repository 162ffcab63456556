package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestZeroPlan(t *testing.T) {
	var p Plan
	if !p.Zero() {
		t.Fatal("zero Plan must report Zero")
	}
	inj, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		t.Fatal("zero plan must yield a nil injector")
	}
	p.SSDRead.Probability = 0.1
	if p.Zero() {
		t.Fatal("plan with an enabled site must not be Zero")
	}
	p = Plan{NodeCrashes: []NodeCrash{{Node: 0, At: Duration(time.Second)}}}
	if p.Zero() {
		t.Fatal("plan with a scheduled crash must not be Zero")
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{ArtifactCorrupt: SiteSpec{Probability: -0.1}},
		{RegistryTimeout: SiteSpec{Probability: 1.5}},
		{SSDRead: SiteSpec{Every: -1}},
		{TimeoutDelay: Duration(-time.Second)},
		{NodeCrashes: []NodeCrash{{Node: -1}}},
		{NodeCrashes: []NodeCrash{{Node: 0, At: Duration(-1)}}},
		{Retry: RetryPolicy{Jitter: 2}},
		{Retry: RetryPolicy{MaxAttempts: -1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d should fail validation: %+v", i, p)
		}
	}
	if err := (Plan{RestoreMismatch: SiteSpec{Probability: 1}}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestInjectDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, SSDRead: SiteSpec{Probability: 0.3}, ArtifactCorrupt: SiteSpec{Probability: 0.3}}
	draw := func() []bool {
		inj, err := NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, inj.Inject(SiteSSDRead, fmt.Sprintf("k%d", i%7)))
			out = append(out, inj.Inject(SiteArtifactCorrupt, "m"))
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical plans must yield identical draw sequences")
	}
	fired := 0
	for _, v := range a {
		if v {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.3 over %d draws fired %d times; expected a nontrivial count", len(a), fired)
	}
}

// Draws at one (site, key) pair must be independent of draws at other
// pairs: interleaving extra draws elsewhere cannot change a pair's
// outcome sequence.
func TestInjectOrderRobust(t *testing.T) {
	plan := Plan{Seed: 7, SSDRead: SiteSpec{Probability: 0.5}}
	seq := func(noise bool) []bool {
		inj, _ := NewInjector(plan)
		var out []bool
		for i := 0; i < 100; i++ {
			if noise {
				inj.Inject(SiteSSDRead, "other")
				inj.Inject(SiteSSDRead, "third")
			}
			out = append(out, inj.Inject(SiteSSDRead, "target"))
		}
		return out
	}
	if !reflect.DeepEqual(seq(false), seq(true)) {
		t.Fatal("draws for one key must not depend on draws for other keys")
	}
}

func TestInjectEvery(t *testing.T) {
	inj, err := NewInjector(Plan{SSDRead: SiteSpec{Every: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for i := 0; i < 9; i++ {
		got = append(got, inj.Inject(SiteSSDRead, "k"))
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Every=3: got %v want %v", got, want)
	}
	if inj.Fired(SiteSSDRead) != 3 {
		t.Fatalf("Fired = %d, want 3", inj.Fired(SiteSSDRead))
	}
	if inj.FiredTotal() != 3 {
		t.Fatalf("FiredTotal = %d, want 3", inj.FiredTotal())
	}
	// Disabled sites draw nothing and leave no counter state.
	if inj.Inject(SiteRestoreMismatch, "k") {
		t.Fatal("disabled site must never fire")
	}
}

func TestInjectProbabilityConverges(t *testing.T) {
	inj, _ := NewInjector(Plan{Seed: 9, SSDRead: SiteSpec{Probability: 0.2}})
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		if inj.Inject(SiteSSDRead, "k") {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("empirical rate %.4f far from 0.2", got)
	}
}

func TestBackoff(t *testing.T) {
	inj, _ := NewInjector(Plan{SSDRead: SiteSpec{Probability: 1}})
	prev := time.Duration(0)
	for attempt := 0; attempt < 6; attempt++ {
		d := inj.Backoff(SiteSSDRead, "k", attempt)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, d)
		}
		// Cap plus maximal jitter bounds every delay.
		capMax := inj.Plan().Retry.Cap.D()
		capMax += time.Duration(float64(capMax) * inj.Plan().Retry.Jitter)
		if d > capMax {
			t.Fatalf("attempt %d: backoff %v exceeds cap+jitter %v", attempt, d, capMax)
		}
		if attempt > 0 && attempt < 3 && d <= prev {
			t.Fatalf("attempt %d: backoff %v did not grow from %v", attempt, d, prev)
		}
		if d2 := inj.Backoff(SiteSSDRead, "k", attempt); d2 != d {
			t.Fatalf("backoff not deterministic: %v vs %v", d, d2)
		}
		prev = d
	}
}

func TestTimeoutDelay(t *testing.T) {
	inj, _ := NewInjector(Plan{SSDRead: SiteSpec{Probability: 1}})
	if got := inj.TimeoutDelay(time.Second); got != time.Second {
		t.Fatalf("unset TimeoutDelay must use fallback, got %v", got)
	}
	inj, _ = NewInjector(Plan{SSDRead: SiteSpec{Probability: 1}, TimeoutDelay: Duration(50 * time.Millisecond)})
	if got := inj.TimeoutDelay(time.Second); got != 50*time.Millisecond {
		t.Fatalf("TimeoutDelay = %v, want 50ms", got)
	}
}

func TestCrashSchedule(t *testing.T) {
	inj, _ := NewInjector(Plan{NodeCrashes: []NodeCrash{
		{Node: 2, At: Duration(5 * time.Second)},
		{Node: 0, At: Duration(time.Second)},
		{Node: 1, At: Duration(5 * time.Second)},
	}})
	got := inj.CrashSchedule()
	want := []NodeCrash{
		{Node: 0, At: Duration(time.Second)},
		{Node: 1, At: Duration(5 * time.Second)},
		{Node: 2, At: Duration(5 * time.Second)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CrashSchedule = %v, want %v", got, want)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		return got[i].At < got[j].At || (got[i].At == got[j].At && got[i].Node < got[j].Node)
	}) {
		t.Fatal("schedule not sorted")
	}
}

func TestDurationJSON(t *testing.T) {
	type wrap struct {
		D Duration `json:"d"`
	}
	out, err := json.Marshal(wrap{D: Duration(1500 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"d":"1.5s"}` {
		t.Fatalf("marshal = %s", out)
	}
	var w wrap
	if err := json.Unmarshal([]byte(`{"d":"250ms"}`), &w); err != nil {
		t.Fatal(err)
	}
	if w.D.D() != 250*time.Millisecond {
		t.Fatalf("unmarshal string = %v", w.D.D())
	}
	if err := json.Unmarshal([]byte(`{"d":1000}`), &w); err != nil {
		t.Fatal(err)
	}
	if w.D.D() != 1000 {
		t.Fatalf("unmarshal number = %v", int64(w.D))
	}
	if err := json.Unmarshal([]byte(`{"d":"nonsense"}`), &w); err == nil {
		t.Fatal("bad duration string must error")
	}
}

func TestPresetsAndLoadPlan(t *testing.T) {
	for name, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
	if !Presets()["none"].Zero() {
		t.Fatal("preset none must be zero")
	}
	if Presets()["mild"].Zero() || Presets()["heavy"].Zero() || Presets()["crash"].Zero() {
		t.Fatal("mild/heavy/crash presets must be nonzero")
	}
	if len(Presets()["crash"].NodeCrashes) != 1 {
		t.Fatal("crash preset must schedule a node crash")
	}

	p, err := LoadPlan("mild")
	if err != nil || p.Zero() {
		t.Fatalf("LoadPlan(mild): %v %v", p, err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	body := `{"seed": 11, "ssd_read": {"probability": 0.25}, "timeout_delay": "75ms", "node_crashes": [{"node": 1, "at": "10s"}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err = LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 11 || p.SSDRead.Probability != 0.25 || p.TimeoutDelay.D() != 75*time.Millisecond || len(p.NodeCrashes) != 1 || p.NodeCrashes[0].At.D() != 10*time.Second {
		t.Fatalf("loaded plan mismatch: %+v", p)
	}

	if _, err := LoadPlan("no-such-preset-or-file"); err == nil {
		t.Fatal("unknown preset must error")
	}
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte(`{"ssd_read": {"probability": 7}}`), 0o644)
	if _, err := LoadPlan(badPath); err == nil {
		t.Fatal("invalid plan file must error")
	}
}

func TestDegradeReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
		ok   bool
	}{
		{&ArtifactCorruptError{Key: "m", Section: "graphs", Detail: "crc"}, ReasonCorruptArtifact, true},
		{&FetchTimeoutError{Key: "m", Attempts: 4}, ReasonFetchTimeout, true},
		{&ReadError{Object: "m", Attempts: 4}, ReasonSSDReadFailed, true},
		{&RestoreMismatchError{Key: "m", Label: "graph 0"}, ReasonRestoreMismatch, true},
		{fmt.Errorf("wrapped: %w", &RestoreMismatchError{Key: "m"}), ReasonRestoreMismatch, true},
		{errors.New("plain"), "", false},
		{nil, "", false},
	}
	for i, c := range cases {
		got, ok := DegradeReason(c.err)
		if got != c.want || ok != c.ok {
			t.Errorf("case %d: DegradeReason = (%q, %v), want (%q, %v)", i, got, ok, c.want, c.ok)
		}
	}
	for _, err := range []error{
		&ArtifactCorruptError{Key: "k", Section: "s", Detail: "d"},
		&FetchTimeoutError{Key: "k", Attempts: 2},
		&ReadError{Object: "o", Attempts: 3},
		&RestoreMismatchError{Key: "k", Label: "l"},
	} {
		if err.Error() == "" {
			t.Errorf("%T has empty Error()", err)
		}
	}
}

// Concurrent draws for distinct keys must produce the same per-key
// outcome sequences as serial draws: the race detector guards the
// mutex, this guards the math.
func TestInjectConcurrentDistinctKeys(t *testing.T) {
	plan := Plan{Seed: 5, SSDRead: SiteSpec{Probability: 0.4}}
	serial := make(map[string][]bool)
	inj, _ := NewInjector(plan)
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("k%d", k)
		for i := 0; i < 50; i++ {
			serial[key] = append(serial[key], inj.Inject(SiteSSDRead, key))
		}
	}

	inj2, _ := NewInjector(plan)
	var mu sync.Mutex
	conc := make(map[string][]bool)
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("k%d", k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]bool, 0, 50)
			for i := 0; i < 50; i++ {
				local = append(local, inj2.Inject(SiteSSDRead, key))
			}
			mu.Lock()
			conc[key] = local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(serial, conc) {
		t.Fatal("concurrent per-key draw sequences diverged from serial")
	}
}
