package main

import (
	"strings"
	"testing"
)

// TestPickMode pins the mode dispatch: each mode flag alone selects its
// mode, no flags select the join mode, and every conflicting
// combination is an error naming the clashing flags — the regression
// test for the silent precedence order that used to run -serve and
// drop -epc when both were given.
func TestPickMode(t *testing.T) {
	cases := []struct {
		label    string
		serve    bool
		fault    bool
		epc      bool
		query    string
		want     runMode
		errFlags []string
	}{
		{label: "default-join", want: modeJoin},
		{label: "serve", serve: true, want: modeServe},
		{label: "fault", fault: true, want: modeFault},
		{label: "epc", epc: true, want: modeEPC},
		{label: "query", query: "q1.filter-agg", want: modeQuery},
		{label: "suite-query", query: "s09.j1.sel250.u.agg", want: modeQuery},
		{label: "serve+fault", serve: true, fault: true, errFlags: []string{"-serve", "-fault"}},
		{label: "serve+epc", serve: true, epc: true, errFlags: []string{"-serve", "-epc"}},
		{label: "fault+query", fault: true, query: "q1.filter-agg", errFlags: []string{"-fault", "-query"}},
		{label: "epc+query", epc: true, query: "q1.filter-agg", errFlags: []string{"-epc", "-query"}},
		{label: "all-four", serve: true, fault: true, epc: true, query: "x",
			errFlags: []string{"-serve", "-fault", "-epc", "-query"}},
	}
	for _, c := range cases {
		got, err := pickMode(c.serve, c.fault, c.epc, c.query)
		if len(c.errFlags) > 0 {
			if err == nil {
				t.Errorf("%s: no error, got mode %d", c.label, got)
				continue
			}
			for _, f := range c.errFlags {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("%s: error %q does not name %s", c.label, err, f)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.label, err)
		} else if got != c.want {
			t.Errorf("%s: mode %d, want %d", c.label, got, c.want)
		}
	}
}

// TestParseSetting pins the setting-name table and its rejection of
// unknown names (main exits 2 on the false return).
func TestParseSetting(t *testing.T) {
	for name, want := range map[string]bool{
		"plain": true, "plainm": true, "doe": true, "die": true,
		"": false, "sgx": false, "DiE": false,
	} {
		if _, ok := parseSetting(name); ok != want {
			t.Errorf("parseSetting(%q) ok=%v, want %v", name, ok, want)
		}
	}
}

// TestCheckScale: -scale must be a positive power of two, and in the
// modes that derive relation sizes from it (join, -epc, -query) it may
// not leave the RowsForMB(100)/scale relation empty; the serving modes
// size nothing by it.
func TestCheckScale(t *testing.T) {
	for _, c := range []struct {
		m     runMode
		scale int64
		ok    bool
	}{
		{modeJoin, 1, true},
		{modeJoin, 128, true},
		{modeJoin, 1 << 23, true},
		{modeJoin, 1 << 24, false},
		{modeEPC, 1 << 23, true},
		{modeEPC, 1 << 24, false},
		{modeQuery, 1 << 24, false},
		{modeQuery, 1 << 26, false},
		{modeServe, 1 << 24, true},
		{modeFault, 1 << 24, true},
		{modeJoin, 0, false},
		{modeJoin, -4, false},
		{modeJoin, 3, false},
		{modeServe, 96, false},
	} {
		if err := checkScale(c.m, c.scale); (err == nil) != c.ok {
			t.Errorf("checkScale(mode %d, %d) = %v, want ok=%v", c.m, c.scale, err, c.ok)
		}
	}
}
