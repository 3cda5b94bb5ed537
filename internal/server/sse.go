package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"finser/internal/events"
)

// handleEvents streams one job's live telemetry as Server-Sent Events
// (GET /jobs/{id}/events): every event carries its sequence ID as the SSE
// id, so a dropped client reconnects with Last-Event-ID (or ?from=N) and
// replays exactly the events it missed. When the resume point has aged out
// of the job's ring, a synthetic "gap" event reports how many were lost
// before the retained tail replays. The stream ends cleanly when the job
// reaches a terminal state (its stream closes), when the client
// disconnects, or when the subscriber stalls past a full ring of
// unconsumed events (the bus kills it rather than backpressure the job).
// Heartbeat comments keep idle connections alive through proxies.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("%v: %q", ErrUnknownJob, r.PathValue("id"))})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "server: response writer cannot stream"})
		return
	}

	after := int64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("server: bad Last-Event-ID %q", v)})
			return
		}
		after = n
	} else if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("server: bad from %q", v)})
			return
		}
		after = n
	}

	sub := j.events.Subscribe(after)
	defer sub.Cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)

	if n := sub.Missed(); n > 0 {
		s.reg.Counter("serd/events/replay_missed").Add(n)
		writeSSE(w, events.Event{Type: events.TypeGap, Job: j.id, Missed: n, TimeMs: time.Now().UnixMilli()})
	}
	fl.Flush()

	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-heartbeat.C:
			io.WriteString(w, ": heartbeat\n\n")
			fl.Flush()
		case e, open := <-sub.C():
			if !open {
				return // job finished, or the bus dropped this stalled client
			}
			writeSSE(w, e)
			// Drain whatever else is already buffered before flushing, so a
			// burst of bin events costs one flush, not one per event.
			for drained := false; !drained; {
				select {
				case e, open := <-sub.C():
					if !open {
						fl.Flush()
						return
					}
					writeSSE(w, e)
				default:
					drained = true
				}
			}
			fl.Flush()
		}
	}
}

// writeSSE renders one event in SSE framing (id / event / data). Gap events
// carry no sequence ID — clients must not resume from them.
func writeSSE(w io.Writer, e events.Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return // an Inf or NaN float field fails to marshal; drop the event
	}
	if e.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", e.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
}
