package main

import (
	"io"
	"net"
	"testing"
)

// One connection, three request/response exchanges of known sizes:
// the proxy's counts must equal the hand-computed totals.
func TestCountingProxyCountsAnExchange(t *testing.T) {
	exchange := []struct{ req, resp int }{{10, 7}, {20, 1}, {5, 100}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for _, e := range exchange {
			if _, err := io.ReadFull(c, make([]byte, e.req)); err != nil {
				done <- err
				return
			}
			if _, err := c.Write(make([]byte, e.resp)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	p, err := newCountingProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	c, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, e := range exchange {
		if _, err := c.Write(make([]byte, e.req)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, e.resp)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := p.counts(), (wireCounts{up: 35, down: 108, trips: 3}); got != want {
		t.Fatalf("proxy counted %+v, want %+v", got, want)
	}
}
