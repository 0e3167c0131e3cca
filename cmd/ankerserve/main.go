// Command ankerserve runs the networked serving tier as a standalone
// process: a primary (or replica) database behind one listener that
// remote sessions Dial and replicas stream the WAL from.
//
// Primary, serving namespace "default" on :7070 with durability:
//
//	ankerserve -addr :7070 -dir /var/lib/ankerdb
//
// Read replica of it, serving remote read sessions on :7071:
//
//	ankerserve -addr :7071 -dir /var/lib/ankerdb-replica -replica-of primary:7070
//
// Multi-tenant: repeat -ns name=dir to front several databases behind
// one port (each gets its own durability directory; the -dir flag is
// shorthand for -ns default=DIR).
//
// The process serves until SIGINT/SIGTERM, then shuts the listener and
// every database down cleanly. -metrics additionally serves the
// observability endpoint (/metrics, /debug/pprof, ...).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ankerdb"
)

type nsFlag struct{ pairs [][2]string }

func (f *nsFlag) String() string { return fmt.Sprint(f.pairs) }
func (f *nsFlag) Set(s string) error {
	name, dir, ok := strings.Cut(s, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=dir, got %q", s)
	}
	f.pairs = append(f.pairs, [2]string{name, dir})
	return nil
}

var (
	flagAddr      = flag.String("addr", "127.0.0.1:7070", "serving listen address")
	flagDir       = flag.String("dir", "", "durability directory for the default namespace")
	flagReplicaOf = flag.String("replica-of", "", "open as a read replica of this primary address")
	flagNamespace = flag.String("namespace", "default", "namespace to serve or request (single-db mode)")
	flagSessions  = flag.Int("max-sessions", 0, "admission cap for concurrent remote sessions (0 = default)")
	flagMetrics   = flag.String("metrics", "", "optional observability endpoint address")
	flagCkptBytes = flag.Uint64("ckpt-bytes", 64<<20, "auto-checkpoint after this much WAL growth (0 = off)")
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ankerserve: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var tenants nsFlag
	flag.Var(&tenants, "ns", "serve namespace name=durability-dir (repeatable; multi-tenant mode)")
	flag.Parse()
	if err := run(tenants, signalCh(), nil); err != nil {
		fail("%v", err)
	}
}

func signalCh() <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch
}

// run opens the configured databases, reports the resolved serving
// address through ready (when non-nil), and serves until stop
// delivers. Split from main so the serving paths are testable.
func run(tenants nsFlag, stop <-chan os.Signal, ready func(addr string)) error {
	if len(tenants.pairs) > 0 && *flagReplicaOf != "" {
		return fmt.Errorf("-ns and -replica-of do not combine; run one replica per process")
	}

	opts := func(dir string) []ankerdb.Option {
		o := []ankerdb.Option{}
		if dir != "" {
			o = append(o, ankerdb.WithDurability(dir))
			if *flagCkptBytes > 0 {
				o = append(o, ankerdb.WithAutoCheckpoint(*flagCkptBytes, 0),
					ankerdb.WithAutoCheckpointInterval(time.Minute))
			}
		}
		if *flagMetrics != "" {
			o = append(o, ankerdb.WithMetricsServer(*flagMetrics))
		}
		return o
	}

	var dbs []*ankerdb.DB
	defer func() {
		for _, db := range dbs {
			_ = db.Close()
		}
	}()

	if len(tenants.pairs) > 0 {
		// Multi-tenant: one shared server, one DB per namespace. Only
		// the first DB gets the -metrics endpoint (one port).
		srv, err := ankerdb.NewServer(*flagAddr)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		defer srv.Close()
		for i, p := range tenants.pairs {
			o := opts(p[1])
			if i > 0 && *flagMetrics != "" {
				o = o[:len(o)-1]
			}
			db, err := ankerdb.Open(o...)
			if err != nil {
				return fmt.Errorf("open %s: %w", p[0], err)
			}
			dbs = append(dbs, db)
			srv.Register(p[0], db)
			fmt.Printf("ankerserve: %s <- %s\n", p[0], p[1])
		}
		fmt.Printf("ankerserve: serving %d namespaces on %s\n", len(tenants.pairs), srv.Addr())
		if ready != nil {
			ready(srv.Addr())
		}
		waitSignal(stop)
		return nil
	}

	o := append(opts(*flagDir),
		ankerdb.WithServeAddr(*flagAddr),
		ankerdb.WithNamespace(*flagNamespace))
	if *flagSessions > 0 {
		o = append(o, ankerdb.WithServeMaxSessions(*flagSessions))
	}
	if *flagReplicaOf != "" {
		o = append(o, ankerdb.WithReplicaOf(*flagReplicaOf))
	}
	db, err := ankerdb.Open(o...)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	dbs = append(dbs, db)
	role := "primary"
	if *flagReplicaOf != "" {
		role = "replica of " + *flagReplicaOf
	}
	fmt.Printf("ankerserve: %s, namespace %q, serving on %s\n", role, *flagNamespace, db.ServeAddr())
	if ready != nil {
		ready(db.ServeAddr())
	}
	waitSignal(stop)
	return nil
}

func waitSignal(ch <-chan os.Signal) {
	<-ch
	fmt.Println("ankerserve: shutting down")
}
