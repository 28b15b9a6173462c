package sentiment

import (
	"math"
	"strings"

	"reviewsolver/internal/textproc"
)

// SentiStrength is the dual-scale analyzer modelled on the SentiStrength
// tool: it tracks the strongest positive and the strongest negative signal
// separately and reports Negative whenever the negative scale dominates or
// even matches a weak positive scale. Functional complaints ("doesn't work",
// "can't login") register as negative even without overt sentiment words,
// which is exactly why the paper found SentiStrength to have far higher
// negative recall than NLTK and Stanford (Table 4).
type SentiStrength struct{}

var _ Analyzer = SentiStrength{}

// Name implements Analyzer.
func (SentiStrength) Name() string { return "SentiStrength" }

// Classify implements Analyzer.
func (SentiStrength) Classify(sentence string) Polarity {
	sp := tokenScratch.Get().(*[]textproc.Token)
	toks := textproc.TokenizeInto((*sp)[:0], sentence)
	defer func() {
		*sp = toks[:0]
		tokenScratch.Put(sp)
	}()
	maxPos, maxNeg := 1, -1 // SentiStrength scales start at +1 / -1
	boost := 0
	negate := 0 // countdown window after a negation word
	exclaims := 0
	for _, t := range toks {
		if t.Kind == textproc.Punct && strings.HasPrefix(t.Text, "!") {
			exclaims++
			continue
		}
		if t.Kind != textproc.Word {
			continue
		}
		w := t.Lower
		if isNegation(w) {
			negate = 3 // negation scope: next three words
			continue
		}
		if b, ok := boosters[w]; ok {
			boost += b
			continue
		}
		v, ok := valence[w]
		if !ok {
			if negate > 0 {
				negate--
				// A negated neutral verb is a functional complaint:
				// "doesn't work", "won't open", "can't send".
				if isFunctionVerb(w) {
					if -2 < maxNeg {
						maxNeg = -2
					} else {
						maxNeg--
					}
					negate = 0
				}
			}
			boost = 0
			continue
		}
		v = applyBoost(v, boost)
		boost = 0
		if negate > 0 {
			v = flip(v)
			negate = 0
		}
		if v > 0 && v+1 > maxPos {
			maxPos = v
		}
		if v < 0 && v < maxNeg {
			maxNeg = v
		}
	}
	// Exclamation marks amplify whichever scale is stronger.
	if exclaims > 0 {
		if -maxNeg >= maxPos && maxNeg > -5 {
			maxNeg--
		} else if maxPos > 1 && maxPos < 5 {
			maxPos++
		}
	}
	switch {
	case -maxNeg > maxPos:
		return Negative
	case maxPos > -maxNeg && maxPos > 1:
		return Positive
	case maxNeg <= -2:
		// Equal-strength mixed signal: SentiStrength leans negative for
		// review text (negative scale wins ties at strength >= 2).
		return Negative
	default:
		return Neutral
	}
}

func applyBoost(v, boost int) int {
	if v > 0 {
		v += boost
		if v < 1 {
			v = 1
		}
		if v > 5 {
			v = 5
		}
		return v
	}
	v -= boost
	if v > -1 {
		v = -1
	}
	if v < -5 {
		v = -5
	}
	return v
}

// flip inverts polarity the way SentiStrength does: a negated sentiment word
// becomes a weakened signal of the opposite polarity.
func flip(v int) int {
	if v > 0 {
		return -v // "not good" → negative of the same strength
	}
	return 1 // "not bad" → barely positive → neutral-ish
}

// isFunctionVerb reports whether a neutral verb describes app functionality
// whose negation implies a malfunction.
func isFunctionVerb(w string) bool {
	switch w {
	case "work", "works", "working", "open", "opens", "load", "loads",
		"start", "starts", "sync", "syncs", "connect", "connects",
		"send", "sends", "save", "saves", "show", "shows", "play",
		"plays", "login", "register", "respond", "responds", "update",
		"function", "launch", "download", "upload", "receive",
		"display", "refresh", "find", "see", "access", "log":
		return true
	}
	return false
}

// NLTK is the conservative log-odds analyzer standing in for the NLTK
// sentiment classifier: it sums per-word log-odds trained for strong movie
// review polarity and requires a wide margin before leaving Neutral, so it
// misses most functional complaints.
type NLTK struct{}

var _ Analyzer = NLTK{}

// Name implements Analyzer.
func (NLTK) Name() string { return "NLTK" }

// Classify implements Analyzer.
func (NLTK) Classify(sentence string) Polarity {
	words := textproc.Words(sentence)
	if len(words) == 0 {
		return Neutral
	}
	score := 0.0
	for _, w := range words {
		if v, ok := valence[w]; ok {
			// Only strong valence contributes; mild words wash out, and
			// negation is ignored (bag-of-words model).
			if v >= 3 {
				score += math.Log(4)
			} else if v <= -3 {
				score -= math.Log(4)
			}
		}
	}
	// Normalize by length: long mixed sentences stay neutral.
	norm := score / math.Sqrt(float64(len(words)))
	switch {
	case norm <= -0.9:
		return Negative
	case norm >= 0.9:
		return Positive
	default:
		return Neutral
	}
}

// Stanford is the clause-cascade analyzer standing in for the Stanford
// CoreNLP sentiment model: each clause receives a local score, and the
// sentence polarity is the sign of the final clause unless an earlier clause
// is overwhelmingly stronger. Trained on formal prose, it reads most
// terse review clauses as Neutral.
type Stanford struct{}

var _ Analyzer = Stanford{}

// Name implements Analyzer.
func (Stanford) Name() string { return "Stanford" }

// Classify implements Analyzer.
func (Stanford) Classify(sentence string) Polarity {
	clauses := splitClauses(sentence)
	if len(clauses) == 0 {
		return Neutral
	}
	scores := make([]int, len(clauses))
	for i, cl := range clauses {
		scores[i] = clauseScore(cl)
	}
	final := scores[len(scores)-1]
	maxAbs := 0
	maxVal := 0
	for _, s := range scores {
		if abs(s) > maxAbs {
			maxAbs, maxVal = abs(s), s
		}
	}
	// The final clause dominates unless another clause is >= 2x stronger.
	decisive := final
	if maxAbs >= 2*abs(final) {
		decisive = maxVal
	}
	switch {
	case decisive <= -4:
		return Negative
	case decisive >= 4:
		return Positive
	default:
		return Neutral
	}
}

func splitClauses(sentence string) []string {
	fields := strings.FieldsFunc(sentence, func(r rune) bool {
		return r == ',' || r == ';' || r == ':'
	})
	out := fields[:0]
	for _, f := range fields {
		if strings.TrimSpace(f) != "" {
			out = append(out, f)
		}
	}
	return out
}

func clauseScore(clause string) int {
	score := 0
	negate := false
	for _, w := range textproc.Words(clause) {
		if isNegation(w) {
			negate = true
			continue
		}
		if v, ok := valence[w]; ok {
			if negate {
				v = flip(v)
				negate = false
			}
			score += v
		}
	}
	return score
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
