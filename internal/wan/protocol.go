// Package wan emulates the production control plane of §5's testbed: switch
// agents speaking a JSON-over-TCP protocol to a centralized controller that
// installs tunnels (serially, matching the production behaviour behind
// Fig 11b's linear update time) and pushes rate-adaptation tables. Combined
// with the optical.VOA script it reproduces the §5 scenario end to end and
// measures the Fig 11a latency breakdown.
package wan

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// MsgType enumerates protocol requests.
type MsgType string

// Protocol message types.
const (
	MsgInstallTunnel MsgType = "install_tunnel"
	MsgRemoveTunnel  MsgType = "remove_tunnel"
	MsgUpdateRates   MsgType = "update_rates"
	MsgPing          MsgType = "ping"
	// MsgReplRecord carries one CRC-framed journal record from a leader to a
	// cross-site standby (Request.Frame); MsgReplSnapshot carries a full-state
	// snapshot frame for re-sync. Both are answered with Response.Ack (the
	// standby's contiguous applied prefix) and possibly Response.Resync.
	MsgReplRecord   MsgType = "repl_record"
	MsgReplSnapshot MsgType = "repl_snapshot"
)

// Request is a controller -> switch message. Gen and Seq implement the
// controller-incarnation fence: Gen is the sender's durable generation
// (persist.Store.Generation), Seq a per-peer monotone sequence. Both are
// zero — and absent from the wire, keeping the encoding byte-identical to
// the unfenced protocol — when the controller runs without a state store.
// Leader names the sending controller incarnation (site id); it breaks
// ties between two claimants that fenced to the same generation from
// different sites, where no shared lock can arbitrate. Frame is a
// replication frame (repl messages only). All three extension fields are
// omitted from the wire when unset, keeping the legacy encoding
// byte-identical.
type Request struct {
	Type     MsgType            `json:"type"`
	TunnelID int                `json:"tunnel_id,omitempty"`
	Path     []int              `json:"path,omitempty"` // link IDs
	Rates    map[string]float64 `json:"rates,omitempty"`
	Gen      uint64             `json:"gen,omitempty"`
	Seq      uint64             `json:"seq,omitempty"`
	Leader   string             `json:"leader,omitempty"`
	Frame    []byte             `json:"frame,omitempty"`
}

// Response is a switch -> controller message. Stale marks a fence
// rejection: the request carried a generation older than one the agent has
// already seen, i.e. it came from a dead controller incarnation; Gen then
// reports the generation the agent is fenced to.
// Ack and Resync answer replication messages: Ack is the standby's
// contiguous applied sequence prefix, and Resync asks the shipper to fall
// back to a snapshot re-sync (the standby detected a gap or a corrupt
// frame). Both are omitted from the wire when unset.
type Response struct {
	OK       bool    `json:"ok"`
	Err      string  `json:"err,omitempty"`
	TookMS   float64 `json:"took_ms"`
	TunnelID int     `json:"tunnel_id,omitempty"`
	Stale    bool    `json:"stale,omitempty"`
	Gen      uint64  `json:"gen,omitempty"`
	Ack      uint64  `json:"ack,omitempty"`
	Resync   bool    `json:"resync,omitempty"`
}

// conn wraps a TCP connection with JSON framing (one JSON value per line,
// via the stdlib stream encoder/decoder).
type conn struct {
	raw net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

func newConn(c net.Conn) *conn {
	return &conn{raw: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
}

func (c *conn) writeRequest(r *Request) error   { return c.enc.Encode(r) }
func (c *conn) readRequest(r *Request) error    { return c.dec.Decode(r) }
func (c *conn) writeResponse(r *Response) error { return c.enc.Encode(r) }
func (c *conn) readResponse(r *Response) error  { return c.dec.Decode(r) }
func (c *conn) close() error                    { return c.raw.Close() }

// roundTrip sends a request and waits for its response with a deadline.
func (c *conn) roundTrip(req *Request, timeout time.Duration) (*Response, error) {
	if timeout > 0 {
		if err := c.raw.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer c.raw.SetDeadline(time.Time{})
	}
	if err := c.writeRequest(req); err != nil {
		return nil, fmt.Errorf("wan: send %s: %w", req.Type, err)
	}
	var resp Response
	if err := c.readResponse(&resp); err != nil {
		return nil, fmt.Errorf("wan: recv %s: %w", req.Type, err)
	}
	if !resp.OK {
		return &resp, fmt.Errorf("wan: switch rejected %s: %s", req.Type, resp.Err)
	}
	return &resp, nil
}

// server is the accept loop every wan endpoint runs — switch agents, the
// leader's lease, and a standby site's replication ingress: a loopback
// listener whose connections each carry a stream of requests, every one
// answered by handle. An endpoint dies with its server: close severs the
// listener and every live connection, so handlers blocked mid-read unwind
// instead of pinning close forever, and tests model a process crash by
// closing it.
type server struct {
	ln     net.Listener
	handle func(*Request) *Response
	wg     sync.WaitGroup
	once   sync.Once

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
}

// listen starts a server on a fresh loopback port. handle must be safe for
// concurrent use: each connection is served on its own goroutine.
func listen(what string, handle func(*Request) *Response) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wan: %s listen: %w", what, err)
	}
	s := &server{ln: ln, handle: handle, conns: make(map[*conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// close stops the server and waits for its handlers. Idempotent; only the
// first call reports the listener's close error.
func (s *server) close() error {
	var err error
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		for c := range s.conns {
			c.close()
		}
		s.mu.Unlock()
		err = s.ln.Close()
		s.wg.Wait()
	})
	return err
}

// track registers a live connection for shutdown; it returns false when the
// server is already closing and the connection should be dropped.
func (s *server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		c := newConn(raw)
		if !s.track(c) {
			c.close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(c)
			s.serve(c)
		}()
	}
}

func (s *server) serve(c *conn) {
	defer c.close()
	for {
		var req Request
		if err := c.readRequest(&req); err != nil {
			return
		}
		if err := c.writeResponse(s.handle(&req)); err != nil {
			return
		}
	}
}
