// Pins the hex output of the request hash writers. Fingerprint names
// checkpoint files and serd report-cache keys, and memoKey names SERECO1
// files, so both must stay byte-identical across refactors.

package engine

import (
	"testing"

	"repro/internal/latch"
)

func TestRequestHashPins(t *testing.T) {
	c := circuitFile(t, "c17.bench")
	model := &latch.Model{ClockPeriodPs: 1000, WindowPs: 50, PulseWidthPs: 120, AttenuationPerLevel: 0.02}
	bias := make([]float64, c.N())
	sp := make([]float64, c.N())
	for id := range sp {
		bias[id] = 0.25 + float64(id)/float64(4*c.N())
		sp[id] = float64(id+1) / float64(c.N()+1)
	}
	base := func() *Request {
		return &Request{Circuit: c, Frames: 3, Vectors: 4096, Seed: 11, Rules: 1, BDDBudget: 5000}
	}
	withLatch := func() *Request {
		r := base()
		r.Latch = model
		return r
	}
	withBias := func() *Request {
		r := base()
		r.Bias = bias
		return r
	}
	fingerprints := []struct {
		name   string
		req    *Request
		engine string
		sp     []float64
		want   string
	}{
		{"plain", base(), "epp-batch", nil, "76d026e24def1ad18db456dd0ec44ed92148d0b8ce990cfb9f71433d7f653348"},
		{"latch", withLatch(), "epp-batch", nil, "93c44c45f2334d4244c5ad6a65a97913636011552576d6983207f8f0ec53dc53"},
		{"sp", base(), "epp-scalar", sp, "94393c8b56e0160669556b391a7539d03e54a01fe119b2288fbc0aef3b25fd60"},
		{"bias", withBias(), "monte-carlo", nil, "f7b971e7926c068af1be87c961dee2236a533d69bf82c55ab90b55126ddcd775"},
		{"bias+sp+latch", func() *Request { r := withBias(); r.Latch = model; return r }(), "epp-batch", sp, "1c29402bdcbdcb4b1e05f427bb2888c833e263ae77b280483d71c0c808bd1f02"},
	}
	for _, tc := range fingerprints {
		if got := tc.req.Fingerprint(tc.engine, tc.sp); got != tc.want {
			t.Errorf("Fingerprint %s = %s, want %s", tc.name, got, tc.want)
		}
	}
	memoKeys := []struct {
		name     string
		req      *Request
		engine   string
		sampling bool
		want     string
	}{
		{"analytic", base(), "epp-batch", false, "a4788b4fef42e4ebe6049b4ca384b7b8688f3a6d3769b686e1d4efc353acac0d"},
		{"analytic+latch", withLatch(), "epp-scalar", false, "6db2a91f237e83c2079dc48f2b2b5501341d43803e701fe7d4ed020d71d471c2"},
		{"sampling", base(), "monte-carlo", true, "db9a80bf951603061694fc17f8daec29d8309464213c65cc3f579eb9560ccb01"},
		{"sampling+latch", withLatch(), "monte-carlo", true, "5fea4240d1dad41a6ebec1882e6ec4c1324ae43b8ee31f628578468014f412b4"},
	}
	for _, tc := range memoKeys {
		if got := tc.req.memoKey(tc.engine, tc.sampling); got != tc.want {
			t.Errorf("memoKey %s = %s, want %s", tc.name, got, tc.want)
		}
	}
}
