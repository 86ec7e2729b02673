// The serd wire protocol: request/response JSON shapes for /v1/analyze and
// /v1/shard, the NDJSON stream frames, and their mapping onto ser.Config.
//
// Float64 results cross the wire in two representations, both lossless:
// analyze responses and node tiles use ordinary JSON numbers — Go's
// encoding/json emits the shortest decimal that round-trips the exact
// float64, so a client decoding a tile reconstructs bit-identical values —
// while shard responses use raw IEEE-754 bit patterns (math.Float64bits, as
// uint64), matching the checkpoint file convention, so not even a NaN
// payload could break the coordinator's bit-exact fold.

package serd

import (
	"fmt"
	"time"

	"repro/internal/circuitio"
	"repro/internal/latch"
	"repro/internal/lru"
	"repro/internal/ser"
)

// CircuitSource names the circuit of a request. Exactly one field must be
// set: inline .bench text, a server-local netlist file (.bench, .v), a
// generated profile name, or the content hash of a cached circuit. Hash is
// the repeat-request fast path that skips re-uploading and re-parsing; a
// non-resident hash fails with HTTP 404 and the client re-sends the full
// source.
type CircuitSource = circuitio.Source

// LatchParams carries an explicit latch model. Supplying it with frames > 1
// selects the latch-window-weighted multi-cycle composition, and it is part
// of the request fingerprint — weighted and unweighted analyses never alias
// in the report cache.
//
//serlint:allow bitfloat request parameters, not results: encoding/json emits the shortest decimal that round-trips the exact float64, and the fingerprint is computed server-side from the decoded values
type LatchParams struct {
	ClockPeriodPs       float64 `json:"clock_period_ps"`
	WindowPs            float64 `json:"window_ps"`
	PulseWidthPs        float64 `json:"pulse_width_ps"`
	AttenuationPerLevel float64 `json:"attenuation_per_level,omitempty"`
}

// Options is the result-determining analysis configuration of a request,
// mirroring the sersim functional options. Workers and TimeoutMs are
// scheduling knobs — they shape execution, never results, and are excluded
// from the request fingerprint like their library counterparts.
type Options struct {
	Method    string       `json:"method,omitempty"`     // "epp" (default) or "monte-carlo"
	Engine    string       `json:"engine,omitempty"`     // registry name override
	SPMethod  string       `json:"sp_method,omitempty"`  // "topological" (default) or "monte-carlo"
	Frames    int          `json:"frames,omitempty"`     // > 1 = multi-cycle analysis
	Vectors   int          `json:"vectors,omitempty"`    // sampling engines' vector budget
	SPVectors int          `json:"sp_vectors,omitempty"` // MC signal-probability vector budget
	Seed      uint64       `json:"seed,omitempty"`
	Rules     string       `json:"rules,omitempty"` // "closed-form" (default), "pairwise", "no-polarity"
	BDDBudget int          `json:"bdd_budget,omitempty"`
	Latch     *LatchParams `json:"latch,omitempty"`
	Workers   int          `json:"workers,omitempty"`    // sweep parallelism (scheduling only)
	TimeoutMs int64        `json:"timeout_ms,omitempty"` // per-request deadline (scheduling only)
}

// config maps the wire options onto a ser.Config. Unknown names fail here,
// before any work is admitted.
func (o Options) config() (ser.Config, error) {
	var cfg ser.Config
	var err error
	if o.Method != "" {
		if cfg.Method, err = ser.ParseMethod(o.Method); err != nil {
			return cfg, err
		}
	}
	if o.SPMethod != "" {
		if cfg.SPMethod, err = ser.ParseSPMethod(o.SPMethod); err != nil {
			return cfg, err
		}
	}
	if o.Rules != "" {
		if cfg.Rules, err = ser.ParseRuleSet(o.Rules); err != nil {
			return cfg, err
		}
	}
	cfg.Engine = o.Engine
	cfg.Frames = o.Frames
	cfg.MC.Vectors = o.Vectors
	cfg.MC.Seed = o.Seed
	cfg.SP.Vectors = o.SPVectors
	cfg.SP.Seed = o.Seed
	cfg.BDDBudget = o.BDDBudget
	cfg.Workers = o.Workers
	if o.TimeoutMs < 0 {
		return cfg, fmt.Errorf("serd: timeout_ms = %d is negative", o.TimeoutMs)
	}
	cfg.Timeout = time.Duration(o.TimeoutMs) * time.Millisecond
	if o.Latch != nil {
		cfg.Latch = &latch.Model{
			ClockPeriodPs:       o.Latch.ClockPeriodPs,
			WindowPs:            o.Latch.WindowPs,
			PulseWidthPs:        o.Latch.PulseWidthPs,
			AttenuationPerLevel: o.Latch.AttenuationPerLevel,
		}
	}
	return cfg, nil
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Circuit CircuitSource `json:"circuit"`
	Options Options       `json:"options"`
	// Stream selects the NDJSON per-node-tile response (also selectable
	// with Accept: application/x-ndjson). Without it the handler responds
	// with one AnalyzeResponse JSON document.
	Stream bool `json:"stream,omitempty"`
	// AllowPartial opts in to degraded results on coordinator daemons: when
	// shards exhaust their retry budget, the request succeeds with HTTP 206
	// and a report covering only the committed node ranges, with the holes
	// disclosed in Uncovered — never silently zero-filled. Requests without
	// it keep the strict all-or-nothing contract. Partial results are never
	// memoized, so a later retry can still produce the complete report.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// Range is a half-open node-ID interval [Lo, Hi) on the wire, used to
// disclose the uncovered holes of a partial result.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// AnalyzeResponse is the non-streaming response of POST /v1/analyze.
type AnalyzeResponse struct {
	Hash        string      `json:"hash"`        // circuit content hash (reusable as circuit.hash)
	Fingerprint string      `json:"fingerprint"` // full request fingerprint (the report-cache key)
	Cached      bool        `json:"cached"`      // true if served from the report cache
	Report      *ser.Report `json:"report"`
	// Partial marks a degraded result (HTTP 206): Report covers only the
	// nodes outside Uncovered, and TotalFIT sums only those nodes. Set only
	// when the request opted in with AllowPartial.
	Partial   bool    `json:"partial,omitempty"`
	Uncovered []Range `json:"uncovered,omitempty"`
}

// NDJSON stream frame types, one JSON object per line. The frame order is
// header, then one node tile per node in ascending ID order, then exactly
// one total or error frame. Everything after the header line is a pure
// function of the request fingerprint — cache status and other per-serving
// metadata live only in the header — so two streams of the same logical
// request are byte-identical from line 2 on, cached or not.
const (
	FrameHeader  = "header"
	FrameNode    = "node"
	FrameTotal   = "total"
	FrameError   = "error"
	FramePartial = "partial"
)

// StreamHeader is the first NDJSON frame.
type StreamHeader struct {
	Type        string `json:"type"` // FrameHeader
	Circuit     string `json:"circuit"`
	Hash        string `json:"hash"`
	Fingerprint string `json:"fingerprint"`
	Engine      string `json:"engine"`
	Method      string `json:"method"`
	Nodes       int    `json:"nodes"`
	Cached      bool   `json:"cached"`
}

// StreamNode is one per-node tile: the NodeSER decomposition. JSON numbers
// round-trip float64 exactly, so a client summing SERFIT in arrival order
// reconstructs TotalFIT bit-identically to a local Run.
//
//serlint:allow bitfloat documented lossless convention (package doc): tiles use JSON shortest-decimal numbers, which round-trip the exact float64 bits
type StreamNode struct {
	Type        string  `json:"type"` // FrameNode
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	RateFIT     float64 `json:"rate_fit"`
	PLatched    float64 `json:"p_latched"`
	PSensitized float64 `json:"p_sensitized"`
	SERFIT      float64 `json:"ser_fit"`
}

// StreamTotal terminates a successful stream.
//
//serlint:allow bitfloat documented lossless convention (package doc): JSON shortest-decimal round-trips the exact float64 bits
type StreamTotal struct {
	Type     string  `json:"type"` // FrameTotal
	Nodes    int     `json:"nodes"`
	TotalFIT float64 `json:"total_fit"`
}

// StreamError terminates a failed stream (the HTTP status is long gone by
// the time a mid-sweep error surfaces).
type StreamError struct {
	Type  string `json:"type"` // FrameError
	Error string `json:"error"`
}

// StreamPartial terminates a degraded stream (AllowPartial requests only):
// the preceding node tiles cover exactly the committed ranges, Uncovered
// lists the holes, and TotalFIT sums the covered nodes only. A client that
// needs the complete result must retry the request.
//
//serlint:allow bitfloat documented lossless convention (package doc): JSON shortest-decimal round-trips the exact float64 bits
type StreamPartial struct {
	Type      string  `json:"type"` // FramePartial
	Nodes     int     `json:"nodes"`
	TotalFIT  float64 `json:"total_fit"`
	Uncovered []Range `json:"uncovered"`
}

// ShardRequest is the body of POST /v1/shard: compute P_sensitized for the
// node-ID range [Lo, Hi) of the request's sweep. Scheduling fields of
// Options apply to the worker's local sweep; the range itself is excluded
// from the fingerprint, so every shard of one sweep reports the same
// fingerprint — the coordinator's commit key.
type ShardRequest struct {
	Circuit CircuitSource `json:"circuit"`
	Options Options       `json:"options"`
	Lo      int           `json:"lo"`
	Hi      int           `json:"hi"`
}

// ShardResponse carries the shard's results as raw IEEE-754 bit patterns in
// node-ID order (Values[i] is site Lo+i), the representation the resume
// checkpoint files also use: integer JSON round-trips exactly, so the
// coordinator's fold is bit-exact by construction.
type ShardResponse struct {
	Fingerprint string   `json:"fingerprint"`
	Engine      string   `json:"engine"`
	Lo          int      `json:"lo"`
	Hi          int      `json:"hi"`
	Values      []uint64 `json:"values"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Circuits  lru.Stats      `json:"circuits"` // parsed-circuit cache
	Reports   lru.Stats      `json:"reports"`  // memoized-report cache
	Admission AdmissionStats `json:"admission"`
	// Coordinator is present only on coordinator daemons: dispatch counters
	// and the per-worker breaker states.
	Coordinator *CoordinatorStats `json:"coordinator,omitempty"`
}
