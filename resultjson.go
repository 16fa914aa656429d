package leodivide

// The result encoder the server caches. Figure 3 is the one large
// result — five curves of ~1,600 points each, hundreds of kilobytes of
// JSON, 40× the next result — and encoding/json spends most of a
// served Figure 3 walking it by reflection. AppendResultJSON writes
// that one type by hand and hands every other result to encoding/json,
// so a caller never has to know which is which.
//
// The hand-written path is not a MarshalJSON method on purpose:
// encoding/json re-scans a marshaler's output to compact it, which
// costs more than the reflection it replaces, and a method would also
// make json.Marshal itself — the reference the tests compare against —
// run the code under test.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"strconv"

	"leodivide/internal/core"
)

// AppendResultJSON appends the JSON encoding of a registry result v to
// dst and returns the extended buffer. The appended bytes are exactly
// json.Marshal(v)'s, and so is the error: a NaN or infinite float is
// an *json.UnsupportedValueError. On error dst is returned unchanged.
//
// A Figure 3 result ([]Fig3Result) is encoded without reflection,
// after growing dst once from its point and step counts; any other
// value goes through encoding/json.
func AppendResultJSON(dst []byte, v any) ([]byte, error) {
	rs, ok := v.([]Fig3Result)
	if !ok {
		// An Encoder writes json.Marshal's bytes plus a newline straight
		// into dst, from its pooled scratch buffer; json.Marshal would
		// return a copy of its own for append to copy again.
		buf := bytes.NewBuffer(dst)
		if err := json.NewEncoder(buf).Encode(v); err != nil {
			return dst, err
		}
		out := buf.Bytes()
		return out[:len(out)-1], nil
	}
	out, err := appendFig3JSON(growFig3(dst, rs), rs)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// The JSON bytes of one Fig3Result, ReturnsPoint and StepCost apart
// from their numbers: field names in declaration order, punctuation,
// and the comma before the next element. TestResultJSONFieldsPinned
// fails if a field is added, removed, renamed or tagged.
const (
	fig3FixedBytes  = len(`{"Spread":,"Oversub":,"Points":,"Steps":,"FloorUnserved":},`)
	pointFixedBytes = len(`{"CapLocations":,"UnservedLocations":,"Satellites":,"PeakBeams":},`)
	stepFixedBytes  = len(`{"FromUnserved":,"ToUnserved":,"LocationsGained":,"AdditionalSatellites":},`)

	// floatBytes bounds one float64 in encoding/json's format
	// ("-2.2250738585072014e-308" is 24 bytes), intBytes one int
	// ("-9223372036854775808" is 20).
	floatBytes = 24
	intBytes   = 20
)

// growFig3 reserves room for rs's encoding in dst, so the append grows
// the buffer once rather than doubling its way up. Each curve is sized
// from the digits of its end points: along a Figure 3 curve the cap,
// the constellation size and the beam count only rise and the unserved
// count only falls, so the ends bound every point, and a step's
// unserved counts and added satellites are bounded by the same ends.
// A hand-built result that breaks the order is still encoded exactly;
// append then grows the buffer as usual.
func growFig3(dst []byte, rs []Fig3Result) []byte {
	n := 2 // [ ] or null
	for i := range rs {
		r := &rs[i]
		n += fig3FixedBytes + 2*floatBytes + intBytes + 2*len("null")
		if k := len(r.Points); k > 0 {
			first, last := &r.Points[0], &r.Points[k-1]
			unserved := maxDigits(first.UnservedLocations, last.UnservedLocations)
			sats := maxDigits(first.Satellites, last.Satellites)
			n += k * (pointFixedBytes + unserved + sats +
				maxDigits(first.CapLocations, last.CapLocations) +
				maxDigits(first.PeakBeams, last.PeakBeams))
			n += len(r.Steps) * (stepFixedBytes + 3*unserved + sats)
		}
	}
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// maxDigits is the longer of a's and b's decimal lengths, sign included.
func maxDigits(a, b int) int { return max(decimalLen(a), decimalLen(b)) }

// decimalLen is the length of strconv.Itoa(n).
func decimalLen(n int) int {
	if n < 0 {
		if n == math.MinInt {
			return intBytes
		}
		return 1 + decimalDigits(uint64(-n))
	}
	return decimalDigits(uint64(n))
}

// decimalDigits is the number of decimal digits of u, 0 counting as
// one. log10(2) ≈ 1233/4096 turns the bit length into the count or
// one less, which a power of ten settles.
func decimalDigits(u uint64) int {
	n := bits.Len64(u|1) * 1233 >> 12
	if u|1 >= pow10[n] {
		n++
	}
	return n
}

// appendFig3JSON appends json.Marshal(rs)'s bytes for a Figure 3
// result: fields in declaration order under their Go names, a nil
// slice as null and an empty one as [].
func appendFig3JSON(b []byte, rs []Fig3Result) ([]byte, error) {
	if rs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range rs {
		r := &rs[i]
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		b = append(b, `{"Spread":`...)
		if b, err = appendJSONFloat(b, r.Spread); err != nil {
			return nil, err
		}
		b = append(b, `,"Oversub":`...)
		if b, err = appendJSONFloat(b, r.Oversub); err != nil {
			return nil, err
		}
		b = append(b, `,"Points":`...)
		b = appendReturnsPoints(b, r.Points)
		b = append(b, `,"Steps":`...)
		b = appendStepCosts(b, r.Steps)
		b = append(b, `,"FloorUnserved":`...)
		b = appendInt(b, r.FloorUnserved)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

func appendReturnsPoints(b []byte, ps []core.ReturnsPoint) []byte {
	if ps == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range ps {
		p := &ps[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"CapLocations":`...)
		b = appendInt(b, p.CapLocations)
		b = append(b, `,"UnservedLocations":`...)
		b = appendInt(b, p.UnservedLocations)
		b = append(b, `,"Satellites":`...)
		b = appendInt(b, p.Satellites)
		b = append(b, `,"PeakBeams":`...)
		b = appendInt(b, p.PeakBeams)
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendStepCosts(b []byte, ss []core.StepCost) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range ss {
		s := &ss[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"FromUnserved":`...)
		b = appendInt(b, s.FromUnserved)
		b = append(b, `,"ToUnserved":`...)
		b = appendInt(b, s.ToUnserved)
		b = append(b, `,"LocationsGained":`...)
		b = appendInt(b, s.LocationsGained)
		b = append(b, `,"AdditionalSatellites":`...)
		b = appendInt(b, s.AdditionalSatellites)
		b = append(b, '}')
	}
	return append(b, ']')
}

// digitPairs spells 00 through 99, so appendInt writes two digits per
// division.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendInt appends strconv.AppendInt(b, int64(v), 10)'s bytes. It
// writes the digits in place, back to front and two per division, into
// b's spare capacity, which growFig3 reserved: strconv formats into a
// scratch array and copies it over. With too little capacity (a
// hand-built result whose curve is out of order) or for math.MinInt,
// whose magnitude is no int, it calls strconv.
func appendInt(b []byte, v int) []byte {
	if v == math.MinInt {
		return strconv.AppendInt(b, int64(v), 10)
	}
	u, sign := uint64(v), 0
	if v < 0 {
		u, sign = uint64(-v), 1
	}
	n := decimalDigits(u)
	start := len(b)
	if cap(b)-start < sign+n {
		return strconv.AppendInt(b, int64(v), 10)
	}
	b = b[:start+sign+n]
	out := b[start+sign:]
	for u >= 100 {
		q := u / 100
		d := 2 * (u - 100*q)
		n -= 2
		out[n], out[n+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		out[0], out[1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		out[0] = byte('0' + u)
	}
	if sign != 0 {
		b[start] = '-'
	}
	return b
}

// pow10[i] is 10^i, as far as decimalDigits needs for an int.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// appendJSONFloat appends f the way encoding/json encodes a float64:
// the shortest decimal that round-trips, in 'f' format unless
// |f| < 1e-6 or |f| ≥ 1e21, where it switches to 'e' with a one-digit
// negative exponent written without its leading zero (1e-7, not
// 1e-07). NaN and ±Inf have no JSON spelling and are an error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
