package wan

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestLogicalClock(t *testing.T) {
	c := NewLogicalClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d, want 0", c.Now())
	}
	if got := c.Advance(3); got != 3 || c.Now() != 3 {
		t.Fatalf("advance(3) = %d, now = %d", got, c.Now())
	}
	if got := c.Advance(1); got != 4 {
		t.Fatalf("advance(1) = %d, want 4", got)
	}
}

func TestLeaseLifecycle(t *testing.T) {
	c := NewLogicalClock()
	l := NewLease(c, 3)

	// Boot grace: a standby that has never reached its leader does not
	// instantly claim leadership.
	if l.Expired() {
		t.Fatal("fresh lease already expired")
	}
	if got := l.Remaining(); got != 3 {
		t.Fatalf("fresh remaining = %d, want 3", got)
	}

	// Renewals push the expiry to now + duration and track the max gen.
	c.Advance(2)
	l.Renew(5)
	if got := l.Remaining(); got != 3 {
		t.Fatalf("remaining after renew at t=2 = %d, want 3 (expiry 5)", got)
	}
	c.Advance(1)
	l.Renew(4) // lower gen never regresses the fence floor
	if l.Gen() != 5 {
		t.Fatalf("gen = %d, want 5 (max observed)", l.Gen())
	}
	if got := l.Remaining(); got != 3 {
		t.Fatalf("remaining after second renew at t=3 = %d, want 3 (expiry 6)", got)
	}

	// A full duration of silence expires the lease, exactly at the boundary.
	c.Advance(2)
	if l.Expired() {
		t.Fatalf("expired at t=%d with %d tick(s) remaining", c.Now(), l.Remaining())
	}
	c.Advance(1)
	if !l.Expired() {
		t.Fatalf("not expired at t=%d with %d tick(s) remaining", c.Now(), l.Remaining())
	}
	if got := l.Remaining(); got != 0 {
		t.Fatalf("remaining at expiry = %d, want 0", got)
	}
	c.Advance(2)
	if got := l.Remaining(); got != -2 {
		t.Fatalf("remaining past expiry = %d, want -2", got)
	}

	// Renewal resurrects an expired lease (the partition healed in time for
	// no one to have claimed).
	l.Renew(5)
	if l.Expired() {
		t.Fatal("renewed lease still expired")
	}
}

// TestLeaseServerProtocol: the lease answers pings with the leader's live
// generation and refuses anything else without dying.
func TestLeaseServerProtocol(t *testing.T) {
	checkGoroutineLeaks(t)
	var gen atomic.Uint64
	gen.Store(7)
	lease, err := NewLeaseServer(gen.Load)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lease.Close() })
	cn, err := TCPTransport{}.Dial("lease/1", lease.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	resp, err := cn.RoundTrip(&Request{Type: MsgPing}, time.Second)
	if err != nil || resp == nil || !resp.OK || resp.Gen != 7 {
		t.Fatalf("ping = %+v, %v; want OK gen 7", resp, err)
	}
	gen.Store(9)
	resp, err = cn.RoundTrip(&Request{Type: MsgPing}, time.Second)
	if err != nil || !resp.OK || resp.Gen != 9 {
		t.Fatalf("second ping = %+v, %v; want OK gen 9", resp, err)
	}
	if resp, _ := cn.RoundTrip(&Request{Type: MsgUpdateRates}, time.Second); resp == nil || resp.OK {
		t.Fatalf("lease accepted a non-ping request: %+v", resp)
	}
	// The connection survives the refusal.
	if resp, err := cn.RoundTrip(&Request{Type: MsgPing}, time.Second); err != nil || !resp.OK {
		t.Fatalf("ping after refusal = %+v, %v", resp, err)
	}
	if err := lease.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lease.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
