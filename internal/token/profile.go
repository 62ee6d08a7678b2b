package token

import (
	"strings"

	"entityres/internal/entity"
)

// Profiler converts descriptions to schema-agnostic token lists: tokens
// from every attribute value, attribute names discarded — the robust
// choice for the Web of data, where matching descriptions rarely agree on
// schema. Profiling caches nothing: it is cheap relative to the downstream
// quadratic work and callers that need caching layer it themselves (see
// package index).
//
// A nil *Profiler is the default profiler (DefaultStopwords, reference
// values kept); every method accepts it. A non-nil Profiler uses its
// fields as set, so &Profiler{} drops no stopwords.
type Profiler struct {
	Stopwords Stopwords
	// SkipRefValues, when set, ignores attribute values that look like
	// URIs (http://, https://, urn:). Reference values carry relational
	// evidence, consumed by relationship-based resolution — feeding them
	// to textual similarity conflates the two kinds of signal.
	SkipRefValues bool
}

// defaultProfiler is what a nil *Profiler reads. It shares the immutable
// default stopword set, so no caller rebuilds it.
var defaultProfiler = Profiler{Stopwords: defaultStopwords}

// IsRefValue reports whether a value looks like an entity reference.
func IsRefValue(v string) bool {
	return strings.HasPrefix(v, "http://") ||
		strings.HasPrefix(v, "https://") ||
		strings.HasPrefix(v, "urn:")
}

// DefaultProfiler returns a copy of the default profiler used by the
// paper's token-blocking family. The copy shares the default stopword
// set, which must not be modified.
func DefaultProfiler() *Profiler {
	p := defaultProfiler
	return &p
}

// orDefault resolves a nil receiver to the default profiler.
func (p *Profiler) orDefault() *Profiler {
	if p == nil {
		return &defaultProfiler
	}
	return p
}

// ValueTokens returns the tokens of one attribute value (or any text)
// under the profiler's stopwords.
func (p *Profiler) ValueTokens(v string) []string {
	return TokenizeFiltered(v, p.orDefault().Stopwords, 0)
}

// Tokens returns the token list of d, with duplicates preserved
// (multiplicity matters for TF weighting).
func (p *Profiler) Tokens(d *entity.Description) []string {
	p = p.orDefault()
	var out []string
	for _, a := range d.Attrs {
		if p.SkipRefValues && IsRefValue(a.Value) {
			continue
		}
		out = append(out, p.ValueTokens(a.Value)...)
	}
	return out
}

// Set returns the distinct tokens of d.
func (p *Profiler) Set(d *entity.Description) Set {
	return NewSet(p.Tokens(d)...)
}
