// Package tokenizer provides the deterministic toy tokenizer that
// stands in for each model's HuggingFace tokenizer. Loading it is stage
// 3 of the paper's loading phase; its cost scales with vocabulary size
// (a Qwen tokenizer with 152k entries takes noticeably longer than
// Llama's 32k one).
package tokenizer

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Tokenizer maps between text and token IDs over a synthetic
// vocabulary "tok0" … "tokN-1". Unknown words hash into the
// vocabulary, making Encode total.
type Tokenizer struct {
	vocab int
}

// New builds a tokenizer with the given vocabulary size.
func New(vocab int) (*Tokenizer, error) {
	if vocab <= 0 {
		return nil, fmt.Errorf("tokenizer: vocabulary size %d", vocab)
	}
	return &Tokenizer{vocab: vocab}, nil
}

// Encode converts text to token IDs. Canonical tokens ("tok<i>") map
// to their ID; other words hash deterministically into the vocabulary.
func (t *Tokenizer) Encode(text string) []uint32 {
	fields := strings.Fields(text)
	ids := make([]uint32, 0, len(fields))
	for _, f := range fields {
		if strings.HasPrefix(f, "tok") {
			if n, err := strconv.Atoi(f[3:]); err == nil && n >= 0 && n < t.vocab {
				ids = append(ids, uint32(n))
				continue
			}
		}
		h := uint32(2166136261)
		for i := 0; i < len(f); i++ {
			h = (h ^ uint32(f[i])) * 16777619
		}
		ids = append(ids, h%uint32(t.vocab))
	}
	return ids
}

// Decode converts token IDs to canonical text.
func (t *Tokenizer) Decode(ids []uint32) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("tok")
		b.WriteString(strconv.FormatUint(uint64(id%uint32(t.vocab)), 10))
	}
	return b.String()
}

// LoadDuration models the time the tokenizer-loading stage takes:
// a fixed setup cost plus a per-entry cost. Calibrated so Qwen1.5's
// 152k-entry tokenizer loads in ≈0.21 s (Figure 8a).
func LoadDuration(vocab int) time.Duration {
	const (
		base     = 50 * time.Millisecond
		perEntry = 1050 * time.Nanosecond
	)
	return base + time.Duration(vocab)*perEntry
}
