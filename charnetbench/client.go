package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// clients is the closed-loop client count: one caller per CPU of the
// two-CPU reference host, each waiting for its reply before sending again.
const clients = 2

// client is the benchmark's only HTTP client: at most `clients`
// keep-alive connections per daemon.
type client struct {
	ctx context.Context
	hc  *http.Client
}

func newClient(ctx context.Context) *client {
	return &client{ctx: ctx, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}}
}

// request is one scheduled call: a GET when body is empty, else a POST.
type request struct {
	path string
	body string
}

// do sends one request and reads the whole reply; lat runs from send to
// the last body byte.
func (c *client) do(url string, r request) (status int, body []byte, lat time.Duration, err error) {
	method := http.MethodGet
	var rd io.Reader
	if r.body != "" {
		method = http.MethodPost
		rd = bytes.NewReader([]byte(r.body))
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url+r.path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, time.Since(t0), err
}

func (c *client) get(url string) (int, []byte, time.Duration, error) {
	return c.do(url, request{})
}

// reply is the outcome of one scheduled request.
type reply struct {
	status int
	body   []byte
	lat    time.Duration
	err    error
}

// closedLoop runs do(0..n-1) from `clients` callers that each take the
// next index once their previous call has returned, and returns the
// wall time of the whole batch.
func closedLoop(n int, do func(i int)) time.Duration {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// closedLoop sends reqs in closed loop and returns the replies in
// schedule order plus the batch's wall time.
func (c *client) closedLoop(base string, reqs []request) ([]reply, time.Duration) {
	out := make([]reply, len(reqs))
	wall := closedLoop(len(reqs), func(i int) {
		st, body, lat, err := c.do(base, reqs[i])
		out[i] = reply{status: st, body: body, lat: lat, err: err}
	})
	return out, wall
}
