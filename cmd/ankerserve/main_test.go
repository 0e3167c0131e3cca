package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ankerdb"
)

// startRun launches run() with the given tenants, waits for the ready
// address, and returns it plus a shutdown func that delivers the stop
// signal and propagates run's error.
func startRun(t *testing.T, tenants nsFlag) (string, func()) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- run(tenants, stop, func(a string) { addrCh <- a }) }()
	select {
	case addr := <-addrCh:
		return addr, func() {
			stop <- os.Interrupt
			if err := <-errCh; err != nil {
				t.Fatalf("run: %v", err)
			}
		}
	case err := <-errCh:
		t.Fatalf("run exited before ready: %v", err)
		return "", nil
	}
}

func TestServeSingleTenant(t *testing.T) {
	*flagAddr = "127.0.0.1:0"
	*flagDir = t.TempDir()
	*flagSessions = 4
	defer func() { *flagDir = ""; *flagSessions = 0 }()

	addr, shutdown := startRun(t, nsFlag{})
	sess, err := ankerdb.Dial(addr, "default")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if st := sess.Stats(); !st.Serving || !st.Durable {
		t.Fatalf("served stats = %+v, want serving+durable", st)
	}
	tx, err := sess.BeginTxn(ankerdb.OLAP)
	if err != nil {
		t.Fatalf("remote begin: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("remote abort: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	shutdown()
}

func TestServeMultiTenant(t *testing.T) {
	*flagAddr = "127.0.0.1:0"
	*flagDir = ""
	root := t.TempDir()
	var tenants nsFlag
	for _, ns := range []string{"alpha", "beta"} {
		if err := tenants.Set(ns + "=" + filepath.Join(root, ns)); err != nil {
			t.Fatalf("nsFlag.Set: %v", err)
		}
	}

	addr, shutdown := startRun(t, tenants)
	for _, ns := range []string{"alpha", "beta"} {
		sess, err := ankerdb.Dial(addr, ns)
		if err != nil {
			t.Fatalf("dial %s: %v", ns, err)
		}
		if st := sess.Stats(); !st.Durable {
			t.Fatalf("%s stats = %+v, want durable", ns, st)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("close %s: %v", ns, err)
		}
	}
	if _, err := ankerdb.Dial(addr, "ghost"); err == nil || !strings.Contains(err.Error(), "namespace") {
		t.Fatalf("ghost namespace dial err = %v, want unknown-namespace error", err)
	}
	shutdown()
}

func TestServeFlagValidation(t *testing.T) {
	var tenants nsFlag
	if err := tenants.Set("noequals"); err == nil {
		t.Fatal("nsFlag.Set accepted a pair without '='")
	}
	if err := tenants.Set("a=b"); err != nil {
		t.Fatalf("nsFlag.Set rejected a=b: %v", err)
	}
	if s := tenants.String(); !strings.Contains(s, "a") {
		t.Fatalf("nsFlag.String() = %q", s)
	}
	*flagReplicaOf = "127.0.0.1:1"
	defer func() { *flagReplicaOf = "" }()
	if err := run(tenants, nil, nil); err == nil || !strings.Contains(err.Error(), "do not combine") {
		t.Fatalf("run with -ns and -replica-of err = %v, want combination error", err)
	}
}
