// Package jsonenc appends JSON scalars exactly as encoding/json writes them,
// for encoders that build a document in place instead of marshaling values:
// the trace package's Chrome export and the metrics registry's JSON export.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendString appends prefix+s as encoding/json quotes a string: prefix is
// the caller's own and needs no escaping; an s holding a byte that
// encoding/json may escape (a quote, a backslash, a control byte, <, >, &
// or anything outside ASCII) goes through json.Marshal itself.
func AppendString(b []byte, prefix, s string) []byte {
	b = append(b, '"')
	b = append(b, prefix...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q[1:]...)
		}
	}
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends the finite f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 in magnitude with a
// two-digit negative exponent cut to one (e-07 → e-7).
func AppendFloat(b []byte, f float64) []byte {
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
	return b
}
