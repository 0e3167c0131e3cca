package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// countingProxy is a loopback TCP relay the traced serve-replica pass
// puts between Dial and the server: it counts the bytes in each
// direction and the round trips (a client-to-server write that follows
// a server-to-client one, or opens the connection, starts a round
// trip — the session protocol is strictly request/response).
type countingProxy struct {
	ln     net.Listener
	target string

	up, down atomic.Int64 // bytes client→server, server→client
	trips    atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newCountingProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

type wireCounts struct{ up, down, trips int64 }

func (p *countingProxy) counts() wireCounts {
	return wireCounts{p.up.Load(), p.down.Load(), p.trips.Load()}
}

func (p *countingProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.track(c)
		p.track(s)
		var lastDown atomic.Bool // last relayed chunk went server→client
		lastDown.Store(true)
		p.wg.Add(2)
		go p.relay(s, c, &p.up, func() {
			if lastDown.Swap(false) {
				p.trips.Add(1)
			}
		})
		go p.relay(c, s, &p.down, func() { lastDown.Store(true) })
	}
}

// relay copies src to dst until either side closes, then closes both
// so the opposite relay ends too.
func (p *countingProxy) relay(dst, src net.Conn, bytes *atomic.Int64, note func()) {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			note()
			bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// close stops accepting, drops every relayed connection and waits for
// the relay goroutines.
func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
