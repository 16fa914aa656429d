// Package scenario defines the canonical byte encoding for scenario
// configurations: the single stable key under which a deterministic
// experiment result can be cached, requested over HTTP, or frozen into
// a golden corpus. The encoding is a versioned, pipe-delimited sequence
// of name=value fields:
//
//	leodivide-serve/v3|afford_share=0.02|calibrated=false|...|seed=1|spreads=1,2,5,10,15
//
// Canonicality rules, enforced by the builder rather than left to
// caller discipline:
//
//   - Fields are appended in strictly ascending name order, once each,
//     so two encoders of the same config cannot disagree on layout.
//   - Floats are formatted with strconv.FormatFloat(v, 'g', -1, 64) —
//     the shortest round-trippable form, the same formatting the golden
//     corpus uses for scale directory names — and must be finite.
//   - Names and string values are restricted to characters that cannot
//     collide with the delimiters ('|', '=', ',').
//
// The package deliberately knows nothing about which fields a scenario
// has; the root package's ScenarioConfig.CanonicalKey owns that list.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Schema is the versioned identifier shared by the canonical key
// prefix and the HTTP request/response envelope of `leodivide serve`.
// Any change to the key layout or the request schema bumps the suffix;
// keys are process-local, so an older schema is simply rejected.
const Schema = "leodivide-serve/v3"

// FormatFloat renders a float in the canonical shortest round-trippable
// form ("0.02", "20", "1e-05"). It is total: non-finite values render
// as Go formats them ("NaN", "+Inf"); the builder rejects those
// separately so keys only ever contain finite numbers.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// KeyBuilder accumulates fields into a canonical key. The zero value is
// not usable; obtain one from NewKey. Append errors (out-of-order
// fields, bad characters, non-finite floats) are sticky and surface
// from Key, so call sites can chain appends without per-call checks.
type KeyBuilder struct {
	b    strings.Builder
	last string
	err  error
}

// NewKey starts a key with the given schema prefix.
func NewKey(schema string) *KeyBuilder {
	k := &KeyBuilder{}
	if schema == "" {
		k.fail("empty schema")
		return k
	}
	k.b.WriteString(schema)
	return k
}

func (k *KeyBuilder) fail(format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf("scenario key: "+format, args...)
	}
}

// validToken reports whether s is safe as a field name: nonempty, and
// free of '|', '=', ',' and whitespace.
func validToken(s string) bool {
	if s == "" {
		return false
	}
	return !strings.ContainsAny(s, "|=, \t\n\r")
}

// validValue reports whether s is safe as a list element: nonempty and
// free of the delimiters and line breaks. Interior spaces are allowed —
// catalog plan labels such as "Starlink Residential w/ Lifeline" are
// legitimate values.
func validValue(s string) bool {
	if s == "" || s != strings.TrimSpace(s) {
		return false
	}
	return !strings.ContainsAny(s, "|=,\t\n\r")
}

func (k *KeyBuilder) field(name, value string) *KeyBuilder {
	if k.err != nil {
		return k
	}
	if !validToken(name) {
		k.fail("invalid field name %q", name)
		return k
	}
	if name <= k.last {
		k.fail("field %q out of order after %q: fields must be appended in strictly ascending name order", name, k.last)
		return k
	}
	k.last = name
	k.b.WriteByte('|')
	k.b.WriteString(name)
	k.b.WriteByte('=')
	k.b.WriteString(value)
	return k
}

// Int64 appends an integer field.
func (k *KeyBuilder) Int64(name string, v int64) *KeyBuilder {
	return k.field(name, strconv.FormatInt(v, 10))
}

// Bool appends a boolean field ("true"/"false").
func (k *KeyBuilder) Bool(name string, v bool) *KeyBuilder {
	return k.field(name, strconv.FormatBool(v))
}

// Float appends a finite float field in canonical formatting.
func (k *KeyBuilder) Float(name string, v float64) *KeyBuilder {
	if k.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		k.fail("field %q: non-finite value %v", name, v)
		return k
	}
	return k.field(name, FormatFloat(v))
}

// Str appends a single string field; the value follows the list-value
// rules (nonempty, trimmed, delimiter-free).
func (k *KeyBuilder) Str(name, v string) *KeyBuilder {
	if k.err == nil && !validValue(v) {
		k.fail("field %q: invalid value %q", name, v)
		return k
	}
	return k.field(name, v)
}

// Floats appends a comma-joined list of finite floats. An empty list
// encodes as the empty value ("name=").
func (k *KeyBuilder) Floats(name string, vs []float64) *KeyBuilder {
	parts := make([]string, len(vs))
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			k.fail("field %q: non-finite value %v at index %d", name, v, i)
			return k
		}
		parts[i] = FormatFloat(v)
	}
	return k.field(name, strings.Join(parts, ","))
}

// Strings appends a comma-joined list of token-safe strings. An empty
// list encodes as the empty value.
func (k *KeyBuilder) Strings(name string, vs []string) *KeyBuilder {
	for i, v := range vs {
		if !validValue(v) {
			k.fail("field %q: invalid value %q at index %d", name, v, i)
			return k
		}
	}
	return k.field(name, strings.Join(vs, ","))
}

// Key returns the accumulated canonical key, or the first append error.
func (k *KeyBuilder) Key() (string, error) {
	if k.err != nil {
		return "", k.err
	}
	return k.b.String(), nil
}
