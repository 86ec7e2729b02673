// NDJSON streaming of analyze results: one header frame, one tile per node
// in ascending ID order, one total (partial, error) frame. The tile and
// terminal frames are a pure function of the request fingerprint —
// per-serving metadata (cache status) lives only in the header — so a cached
// stream is byte-identical to the live stream that populated the cache from
// line 2 on.

package serd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/netlist"
	"repro/internal/ser"
)

// flushEvery is the tile cadence between writes to the client: frequent
// enough that clients observe steady progress (and disconnect tests see
// bytes early), coarse enough to not syscall per node on big circuits.
const flushEvery = 64

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

// headerLine encodes the first frame of a stream, newline included.
func headerLine(c *netlist.Circuit, info ser.Info, cached bool) []byte {
	// Strings, ints and a bool: marshaling cannot fail.
	line, _ := json.Marshal(&StreamHeader{
		Type:        FrameHeader,
		Circuit:     c.Name,
		Hash:        c.ContentHash(),
		Fingerprint: info.Fingerprint,
		Engine:      info.Engine,
		Method:      info.Method.String(),
		Nodes:       c.N(),
		Cached:      cached,
	})
	return append(line, '\n')
}

// streamLive runs the sweep through p.Stream, sending each node tile as
// its engine batch finalizes. The tiles are encoded once, into the buffer
// that becomes the cache entry: every flushEvery tiles the bytes not yet
// sent go out, and after the last tile finishReport appends the total frame
// to the same buffer, so the memoized frames are the bytes the client
// received. The request context is the sweep context: a client disconnect
// cancels the engine promptly (the loop also stops at the first failed
// write, whichever signal lands first). TotalFIT accumulates in yield
// order — ascending node ID, the same order Run sums — so the memoized
// Report and the total frame are bit-identical to a local Run of the
// request. A failed sweep ends in an error frame and is not memoized.
func (s *Server) streamLive(w http.ResponseWriter, r *http.Request, c *netlist.Circuit, p *ser.Prepared, info ser.Info) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// send writes b and pushes it to the client; false means the client is gone.
	send := func(b []byte) bool {
		if _, err := w.Write(b); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !send(headerLine(c, info, false)) {
		return
	}
	// The report names the normalized method (sampling engines report
	// monte-carlo even when selected via WithEngine), as Run's does.
	rep := &ser.Report{Circuit: c.Name, Method: info.Method, Engine: info.Engine, Nodes: make([]ser.NodeSER, 0, c.N())}
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	sent := 0 // bytes of nd already sent
	var err error
	for ns, serr := range p.Stream(r.Context()) {
		if err = serr; err != nil {
			break
		}
		rep.Nodes = append(rep.Nodes, ns)
		rep.TotalFIT += ns.SERFIT
		if err = enc.Encode(nodeFrame(&ns)); err != nil {
			break
		}
		if len(rep.Nodes)%flushEvery == 0 {
			if !send(nd.Bytes()[sent:]) {
				// Client gone: breaking out cancels the sweep after the
				// current batch; nothing further can be written.
				return
			}
			sent = nd.Len()
		}
	}
	var cr *cachedReport
	if err == nil {
		cr, err = finishReport(&nd, info, rep, nil)
	}
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			s.logf("serd: stream %s engine=%s: %v", c.Name, info.Engine, err)
		}
		if enc.Encode(&StreamError{Type: FrameError, Error: err.Error()}) == nil {
			send(nd.Bytes()[sent:])
		}
		return
	}
	s.reports.put(cr)
	send(cr.ndjson[sent:])
}
