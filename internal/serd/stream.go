// NDJSON streaming of analyze results: one header frame, one tile per node
// in ascending ID order, one total (or error) frame. The tile and total
// frames are a pure function of the request fingerprint — per-serving
// metadata (cache status) lives only in the header — so a cached stream is
// byte-identical to the live stream that populated the cache from line 2 on.

package serd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/netlist"
	"repro/internal/ser"
)

// flushEvery is the tile cadence between explicit flushes: frequent enough
// that clients observe steady progress (and disconnect tests see bytes
// early), coarse enough to not syscall per node on big circuits.
const flushEvery = 64

// streamWriter serializes NDJSON frames with periodic flushing. Write
// errors are sticky: once the client is gone every subsequent frame is
// dropped, and err reports the first failure.
type streamWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	flusher http.Flusher
	tiles   int
	err     error
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{bw: bufio.NewWriter(w)}
	sw.enc = json.NewEncoder(sw.bw)
	sw.flusher, _ = w.(http.Flusher)
	return sw
}

// frame writes one NDJSON line (Encode appends the newline).
func (sw *streamWriter) frame(v any) bool {
	if sw.err != nil {
		return false
	}
	if err := sw.enc.Encode(v); err != nil {
		sw.err = err
		return false
	}
	return true
}

// tile writes a node frame, flushing at the cadence.
func (sw *streamWriter) tile(v *StreamNode) bool {
	if !sw.frame(v) {
		return false
	}
	sw.tiles++
	if sw.tiles%flushEvery == 0 {
		sw.flush()
	}
	return sw.err == nil
}

// flush pushes buffered frames to the client.
func (sw *streamWriter) flush() {
	if sw.err != nil {
		return
	}
	if err := sw.bw.Flush(); err != nil {
		sw.err = err
		return
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// nodeFrame converts one NodeSER into its wire tile.
func nodeFrame(ns *ser.NodeSER) *StreamNode {
	return &StreamNode{
		Type:        FrameNode,
		ID:          int(ns.ID),
		Name:        ns.Name,
		RateFIT:     ns.RateFIT,
		PLatched:    ns.PLatched,
		PSensitized: ns.PSensitized,
		SERFIT:      ns.SERFIT,
	}
}

// header builds the first frame of a stream.
func header(c *netlist.Circuit, info ser.Info, cached bool) *StreamHeader {
	return &StreamHeader{
		Type:        FrameHeader,
		Circuit:     c.Name,
		Hash:        c.ContentHash(),
		Fingerprint: info.Fingerprint,
		Engine:      info.Engine,
		Method:      info.Method.String(),
		Nodes:       c.N(),
		Cached:      cached,
	}
}

// streamLive runs the sweep through ser.Stream, emitting each node tile as
// its engine batch finalizes, while accumulating the Report for
// memoization. The request context is the sweep context: a client
// disconnect cancels the engine promptly (the stream consumer also stops at
// the first failed write, whichever signal lands first). TotalFIT
// accumulates in yield order — ascending node ID, the same order Run sums —
// so the memoized Report and the total frame are bit-identical to a local
// Run of the request. The cache entry is encoded by encodeReport, like
// every complete report; the live tiles went out before the report was
// complete, so a live stream encodes its tiles twice (tens of milliseconds
// on s38417, beside a sweep of seconds).
func (s *Server) streamLive(w http.ResponseWriter, r *http.Request, c *netlist.Circuit, cfg ser.Config, info ser.Info) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	sw := newStreamWriter(w)
	if !sw.frame(header(c, info, false)) {
		return
	}
	sw.flush()
	rep := &ser.Report{Circuit: c.Name, Method: cfg.Method, Engine: info.Engine, Nodes: make([]ser.NodeSER, 0, c.N())}
	var sweepErr error
	for ns, err := range ser.Stream(r.Context(), c, cfg) {
		if err != nil {
			sweepErr = err
			break
		}
		rep.Nodes = append(rep.Nodes, ns)
		rep.TotalFIT += ns.SERFIT
		if !sw.tile(nodeFrame(&ns)) {
			// Client gone: breaking out cancels the sweep after the current
			// batch; nothing further can be written.
			return
		}
	}
	if sweepErr != nil {
		if !errors.Is(sweepErr, context.Canceled) {
			s.logf("serd: stream %s engine=%s: %v", c.Name, info.Engine, sweepErr)
		}
		sw.frame(&StreamError{Type: FrameError, Error: sweepErr.Error()})
		sw.flush()
		return
	}
	// Describe already normalized the method (sampling engines report
	// monte-carlo even when selected via WithEngine); mirror it so the
	// memoized report matches Run's.
	rep.Method = info.Method
	if _, err := s.memoize(info, rep); err != nil {
		s.logf("serd: stream %s engine=%s: %v", c.Name, info.Engine, err)
	}
	sw.frame(&StreamTotal{Type: FrameTotal, Nodes: len(rep.Nodes), TotalFIT: rep.TotalFIT})
	sw.flush()
}

// streamPartialReport streams a degraded report (AllowPartial requests
// whose dispatch left holes): HTTP 206, tiles for the covered nodes only,
// and a terminal partial frame disclosing the uncovered ranges in place of
// the total frame — a stream consumer cannot mistake a degraded result for
// a complete one.
func (s *Server) streamPartialReport(w http.ResponseWriter, r *http.Request, c *netlist.Circuit, info ser.Info, rep *ser.Report, uncovered []Range) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusPartialContent)
	sw := newStreamWriter(w)
	if !sw.frame(header(c, info, false)) {
		return
	}
	sw.flush()
	for i := range rep.Nodes {
		if r.Context().Err() != nil {
			return
		}
		if !sw.tile(nodeFrame(&rep.Nodes[i])) {
			return
		}
	}
	sw.frame(&StreamPartial{Type: FramePartial, Nodes: len(rep.Nodes), TotalFIT: rep.TotalFIT, Uncovered: uncovered})
	sw.flush()
}
