package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"dcmodel/internal/cluster"
	"dcmodel/internal/obs"
	"dcmodel/internal/serve"
)

// daemon is one in-process dcmodeld listening on a real loopback socket.
type daemon struct {
	srv  *serve.Server
	url  string
	stop func() error
}

// startDaemon runs serve.Server.Serve on 127.0.0.1:0. obsOn arms
// serve.Config.Obs (stage histograms and live span sampling), as the traced
// run requires.
func startDaemon(cfg serve.Config, obsOn bool) (*daemon, error) {
	if obsOn {
		o := obs.DefaultOptions()
		cfg.Obs = &o
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return &daemon{
		srv: srv,
		url: "http://" + ln.Addr().String(),
		stop: func() error {
			cancel()
			return <-done
		},
	}, nil
}

// clusterNodes is a coordinator and its workers, each on its own loopback
// socket, as cmd/dcmodel-cluster would run them in separate processes.
type clusterNodes struct {
	coordURL   string
	workerURLs []string
	servers    []*http.Server
	served     chan error
	// transport carries the coordinator's worker RPCs; it is the cluster's
	// own, so stopping the cluster leaves no idle connection behind.
	transport *http.Transport
}

func startCluster(workers int) (*clusterNodes, error) {
	c := &clusterNodes{served: make(chan error, workers+1), transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		c.servers = append(c.servers, hs)
		go func() { c.served <- hs.Serve(ln) }()
		return "http://" + ln.Addr().String(), nil
	}
	for i := 0; i < workers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{})
		if err == nil {
			var u string
			if u, err = listen(w.Handler()); err == nil {
				c.workerURLs = append(c.workerURLs, u)
				continue
			}
		}
		c.stop()
		return nil, fmt.Errorf("start worker %d: %w", i, err)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Workers: c.workerURLs,
		Client:  &http.Client{Timeout: 30 * time.Second, Transport: c.transport},
	})
	if err == nil {
		c.coordURL, err = listen(coord.Handler())
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	return c, nil
}

// stop shuts every node down, coordinator first, and waits for each Serve
// goroutine to return.
func (c *clusterNodes) stop() error {
	var first error
	for i := len(c.servers) - 1; i >= 0; i-- {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := c.servers[i].Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
		if err := <-c.served; err != http.ErrServerClosed && first == nil {
			first = err
		}
	}
	c.servers = nil
	c.transport.CloseIdleConnections()
	return first
}
