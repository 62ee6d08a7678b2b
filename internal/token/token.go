// Package token provides the text normalization and tokenization substrate
// used throughout the entity-resolution pipeline: schema-agnostic token
// extraction for token blocking, q-gram extraction for q-grams blocking and
// edit-based similarity, and token sets with the usual set algebra. It also
// owns the default tokenization policy (DefaultProfiler), decided once here
// for every blocker and matcher.
//
// Tokenization choices dominate blocking quality in the Web of data, where
// descriptions share tokens rather than whole values; every tokenizer here
// is deterministic and allocation-conscious because blocking tokenizes
// every value of every description.
package token

import (
	"strings"
	"unicode"
)

// Normalize lowercases s and maps every non-alphanumeric rune to a space.
// This is the canonical normalization applied before token extraction so
// that "Jean-Luc" and "jean luc" produce identical tokens.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// Tokenize splits s into normalized alphanumeric tokens. Tokens of length
// one are kept: single-letter initials carry signal in person names.
func Tokenize(s string) []string {
	return strings.Fields(Normalize(s))
}

// TokenizeFiltered splits s into normalized tokens, dropping stopwords and
// tokens shorter than minLen.
func TokenizeFiltered(s string, stop Stopwords, minLen int) []string {
	raw := Tokenize(s)
	out := raw[:0]
	for _, t := range raw {
		if len(t) < minLen {
			continue
		}
		if stop != nil && stop.Contains(t) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// QGrams returns the padded character q-grams of the normalized form of s.
// Padding with q−1 sentinel characters on both sides gives edge characters
// the same number of grams as interior ones, the standard construction for
// q-gram similarity and q-grams blocking. It returns nil for q < 1 or an
// empty normalized string.
func QGrams(s string, q int) []string {
	if q < 1 {
		return nil
	}
	norm := strings.Join(Tokenize(s), " ")
	if norm == "" {
		return nil
	}
	if q == 1 {
		out := make([]string, 0, len(norm))
		for _, r := range norm {
			out = append(out, string(r))
		}
		return out
	}
	pad := strings.Repeat("#", q-1)
	padded := []rune(pad + norm + pad)
	n := len(padded) - q + 1
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, string(padded[i:i+q]))
	}
	return out
}

// Stopwords is a set of tokens excluded from blocking keys. Frequent
// function words produce enormous blocks with no discriminative power.
type Stopwords map[string]struct{}

// NewStopwords builds a stopword set from the given words (normalized).
func NewStopwords(words ...string) Stopwords {
	s := make(Stopwords, len(words))
	for _, w := range words {
		for _, t := range Tokenize(w) {
			s[t] = struct{}{}
		}
	}
	return s
}

// defaultStopwords is built once and never modified.
var defaultStopwords = NewStopwords(
	"a", "an", "and", "are", "as", "at", "be", "by", "for", "from",
	"has", "he", "in", "is", "it", "its", "of", "on", "or", "that",
	"the", "to", "was", "were", "will", "with",
)

// DefaultStopwords covers the high-frequency English function words that
// dominate attribute values in encyclopaedic KBs. The set is shared and
// must not be modified.
func DefaultStopwords() Stopwords { return defaultStopwords }

// Contains reports whether t is a stopword. A nil set contains nothing.
func (s Stopwords) Contains(t string) bool {
	if s == nil {
		return false
	}
	_, ok := s[t]
	return ok
}
