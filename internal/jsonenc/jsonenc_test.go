package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// Floats take encoding/json's form at every switch and edge.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 9.999999e-7, 1e-7, -1e-7,
		1e20, 1e21, 123456789e13, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, 0.1, 1.0 / 3} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("%v: got %s, want %s", f, got, want)
		}
	}
}

// Strings take encoding/json's HTML-safe escaping, with the prefix kept raw.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\`, "<a&b>", "tab\t", " ", "\xff\xfe", "é", "\x00\x1f"} {
		want, _ := json.Marshal("p " + s)
		if got := AppendString(nil, "p ", s); string(got) != string(want) {
			t.Errorf("%q: got %s, want %s", s, got, want)
		}
	}
}
