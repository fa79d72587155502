package main

import "testing"

// TestParseExps: -exp accepts the bare "all" and comma-separated lists
// of -list ids; any other id, including a typo beside valid ones,
// rejects the whole value.
func TestParseExps(t *testing.T) {
	tests := []struct {
		in   string
		want []string // nil means an error
	}{
		{"all", expIDs},
		{"fig1a", []string{"fig1a"}},
		{"fig1a,fig11,tab4", []string{"fig11", "fig1a", "tab4"}},
		{" fig9 , fig10 ", []string{"fig10", "fig9"}},
		{"tab5,tab5", []string{"tab5"}},
		{"fig99", nil},
		{"fig9,fg10", nil},
		{"fig9,all", nil},
		{"fig9,", nil},
		{"", nil},
		{"ALL", nil},
	}
	for _, tc := range tests {
		got, err := parseExps(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseExps(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExps(%q): %v", tc.in, err)
			continue
		}
		ok := len(got) == len(tc.want)
		for _, id := range tc.want {
			ok = ok && got[id]
		}
		if !ok {
			t.Errorf("parseExps(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
