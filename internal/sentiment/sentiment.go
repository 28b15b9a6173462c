// Package sentiment implements the sentence-level sentiment analysis that
// ReviewSolver uses to discard positive sentences from function-error
// reviews (§3.2.3), plus the adversative-conjunction splitting that breaks
// "great app BUT stats page doesnt work" into a positive part (discarded)
// and a negative part (kept).
//
// The paper compares three off-the-shelf tools (SentiStrength, NLTK,
// Stanford CoreNLP) and picks SentiStrength for its far higher recall on
// negative reviews (Table 4). This package provides three analyzers with the
// same relative behaviour, implemented with genuinely different algorithms:
//
//   - SentiStrength: dual positive/negative strength scales with booster
//     words, negation flipping, and emphatic-punctuation amplification —
//     sensitive to any negative evidence.
//   - NLTK: a naive-Bayes-style log-odds scorer with a high decision margin
//     — conservative, misses most mildly negative sentences.
//   - Stanford: a clause-cascade model where the final clause dominates —
//     also conservative on review prose.
package sentiment

import (
	"strings"
	"sync"

	"reviewsolver/internal/textproc"
)

// Polarity is the sentiment class of a sentence.
type Polarity int

// Polarity values.
const (
	Negative Polarity = iota + 1
	Neutral
	Positive
)

// String returns the polarity name.
func (p Polarity) String() string {
	switch p {
	case Negative:
		return "negative"
	case Neutral:
		return "neutral"
	case Positive:
		return "positive"
	default:
		return "unknown"
	}
}

// Analyzer classifies the sentiment of a single sentence.
type Analyzer interface {
	// Classify returns the polarity of the sentence.
	Classify(sentence string) Polarity
	// Name identifies the analyzer in experiment tables.
	Name() string
}

// tokenScratch recycles the token buffers of Classify and SplitAdversative,
// which run once per clause; no token outlives the call that made it.
var tokenScratch = sync.Pool{
	New: func() any { s := make([]textproc.Token, 0, 64); return &s },
}

// adversative conjunctions that signal contrast between two clause
// sentiments (§3.2.3).
var adversatives = map[string]struct{}{
	"but": {}, "whereas": {}, "nevertheless": {}, "however": {}, "yet": {},
	"although": {}, "though": {},
}

// IsAdversative reports whether a lower-cased word is an adversative
// coordinating conjunction.
func IsAdversative(word string) bool {
	_, ok := adversatives[word]
	return ok
}

// SplitAdversative splits a sentence at its adversative conjunctions into
// separate clause-sentences, mirroring §3.2.3: "We combine the words before
// or after the adversative coordinating conjunctions to construct one
// distinct sentence." A sentence without adversatives is returned unchanged
// as a single element.
func SplitAdversative(sentence string) []string {
	sp := tokenScratch.Get().(*[]textproc.Token)
	toks := textproc.TokenizeInto((*sp)[:0], sentence)
	defer func() {
		*sp = toks[:0]
		tokenScratch.Put(sp)
	}()
	var (
		parts []string
		cur   []string
	)
	flush := func() {
		// Drop trailing sentence-final punctuation from the clause.
		for len(cur) > 0 {
			last := cur[len(cur)-1]
			if last == "." || last == "!" || last == "?" ||
				strings.Trim(last, ".!?") == "" && len(last) > 1 {
				cur = cur[:len(cur)-1]
				continue
			}
			break
		}
		if len(cur) > 0 {
			parts = append(parts, strings.Join(cur, " "))
			cur = cur[:0]
		}
	}
	for _, t := range toks {
		if t.Kind == textproc.Word && IsAdversative(t.Lower) {
			flush()
			continue
		}
		cur = append(cur, t.Text)
	}
	flush()
	if len(parts) == 0 {
		return []string{sentence}
	}
	return parts
}

// NegativeSentences runs the analyzer over every clause of every sentence of
// a review and returns the sentences (clause-level after adversative
// splitting) that are negative or neutral — the ones that may describe the
// error and should feed phrase extraction. Positive clauses are discarded.
func NegativeSentences(a Analyzer, review string) []string {
	var kept []string
	for _, sentence := range textproc.SplitSentences(review) {
		for _, clause := range SplitAdversative(sentence) {
			if a.Classify(clause) != Positive {
				kept = append(kept, clause)
			}
		}
	}
	return kept
}

// HasNegativeSentence reports whether any clause of the review classifies as
// negative under the analyzer. Table 4 counts reviews with at least one
// negative sentence.
func HasNegativeSentence(a Analyzer, review string) bool {
	for _, sentence := range textproc.SplitSentences(review) {
		for _, clause := range SplitAdversative(sentence) {
			if a.Classify(clause) == Negative {
				return true
			}
		}
	}
	return false
}
