package serve

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// encodePlan renders the /v1/plan body for p: byte for byte what
// json.Encoder with SetIndent("", "  ") writes for *Plan, trailing
// newline included, without reflection. The schema is fixed here, so
// a new exported Plan field must be added to this function as well;
// TestPlanJSONCoversEveryField fails until it is.
//
// The output buffer is sized once from the slice lengths. Float text
// is memoized by bit pattern: stations of one class (same m_i, s_i,
// λ″_i) carry bit-identical λ′_i and ρ_i, so a fleet plan repeats
// about a hundred values thousands of times, and shortest-float
// formatting was nearly all of the cost. Identical bits always format to
// identical bytes, so the memo cannot change the output.
//
// A non-finite float or a time MarshalJSON rejects is an error, as it
// is for encoding/json.
func encodePlan(p *Plan) ([]byte, error) {
	if p == nil {
		return []byte("null\n"), nil
	}
	floats := len(p.Rates) + len(p.Utilizations) + len(p.Ramp)
	size := planFixedBytes + 6*len(p.Policy) +
		floats*len(",\n    "+longestFloatJSON) + len(p.Up)*len(",\n    false")
	e := planEncoder{b: make([]byte, 0, size)}

	e.b = append(e.b, "{\n  \"version\": "...)
	e.b = strconv.AppendInt(e.b, p.Version, 10)
	e.b = append(e.b, ",\n  \"lambda\": "...)
	e.float(p.Lambda)
	e.b = append(e.b, ",\n  \"rates\": "...)
	e.floats(p.Rates)
	e.b = append(e.b, ",\n  \"phi\": "...)
	e.float(p.Phi)
	e.b = append(e.b, ",\n  \"avg_response_time\": "...)
	e.float(p.AvgResponseTime)
	e.b = append(e.b, ",\n  \"utilizations\": "...)
	e.floats(p.Utilizations)
	if len(p.Up) > 0 {
		e.b = append(e.b, ",\n  \"up\": ["...)
		for i, u := range p.Up {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, "\n    "...)
			e.b = strconv.AppendBool(e.b, u)
		}
		e.b = append(e.b, "\n  ]"...)
	}
	e.b = append(e.b, ",\n  \"survivors\": "...)
	e.b = strconv.AppendInt(e.b, int64(p.Survivors), 10)
	e.b = append(e.b, ",\n  \"capacity\": "...)
	e.float(p.Capacity)
	e.b = append(e.b, ",\n  \"admitted\": "...)
	e.float(p.Admitted)
	e.b = append(e.b, ",\n  \"shed\": "...)
	e.float(p.Shed)
	if len(p.Ramp) > 0 {
		e.b = append(e.b, ",\n  \"ramp\": "...)
		e.floats(p.Ramp)
	}
	e.b = append(e.b, ",\n  \"solved_at\": "...)
	t, err := p.SolvedAt.MarshalJSON()
	if err != nil {
		return nil, err
	}
	e.b = append(e.b, t...)
	if p.Policy != "" {
		e.b = append(e.b, ",\n  \"policy\": "...)
		e.b = appendJSONString(e.b, p.Policy)
	}
	e.b = append(e.b, "\n}\n"...)
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// planFixedBytes bounds the keys, punctuation, integers and scalar
// floats of a plan body: everything but the slices and the policy.
const planFixedBytes = 512

// longestFloatJSON is as long as any text appendJSONFloat produces: a
// sign, 17 significant digits and the most leading zeros 'f' format
// keeps (|x| ≥ 1e-6).
const longestFloatJSON = "-0.0000012345678901234567"

// planEncoder carries the output buffer, the first error, and the
// float memo: an open-addressed table from float64 bits to the offset
// and length of that value's text already written to b. It takes new
// values only up to half load, so a probe always ends at an empty slot
// within a few steps; a plan with more distinct values than that still
// encodes correctly, it just formats the overflow every time.
type planEncoder struct {
	b       []byte
	err     error
	memoLen int
	memo    [1 << memoBits]struct {
		bits   uint64
		off, n uint32 // n == 0: empty slot
	}
}

// memoBits sizes the float memo at 256 slots (4 KiB), so up to 128
// distinct values are remembered: the N10k benchmark fleet's plan at
// half saturation has 108 (54 loaded classes, one rate and one
// utilization each).
const memoBits = 8

func (e *planEncoder) float(f float64) {
	bits := math.Float64bits(f)
	i := bits * 0x9e3779b97f4a7c15 >> (64 - memoBits) // Fibonacci hash
	for ; e.memo[i].n != 0; i = (i + 1) % (1 << memoBits) {
		if slot := e.memo[i]; slot.bits == bits {
			e.b = append(e.b, e.b[slot.off:slot.off+slot.n]...)
			return
		}
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	start := len(e.b)
	e.b = appendJSONFloat(e.b, f)
	if e.memoLen < len(e.memo)/2 && start <= math.MaxUint32-32 {
		e.memo[i].bits, e.memo[i].off, e.memo[i].n = bits, uint32(start), uint32(len(e.b)-start)
		e.memoLen++
	}
}

// floats writes a float array at depth one of the indented object;
// nil is null, as in encoding/json.
func (e *planEncoder) floats(v []float64) {
	switch {
	case v == nil:
		e.b = append(e.b, "null"...)
		return
	case len(v) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	e.b = append(e.b, '[')
	for i, f := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, "\n    "...)
		e.float(f)
	}
	e.b = append(e.b, "\n  ]"...)
}

// appendJSONFloat is encoding/json's float64 rule (ES6 number to
// string): shortest 'f' text, or 'e' when |f| < 1e-6 or |f| ≥ 1e21,
// with a two-digit negative exponent trimmed (e-07 → e-7). f must be
// finite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString is encoding/json's string rule with HTML escaping
// on (the json.Encoder default): <, >, & and control bytes become
// \u00XX (\b \f \n \r \t keep their short forms), invalid UTF-8 becomes
// \ufffd, and U+2028/U+2029 are escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
