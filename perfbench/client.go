package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/service"
)

// client is the benchmark's one campaign-service client: it POSTs a
// manifest, follows the job's SSE stream to the terminal frame and GETs the
// JSON results, the way `expdriver submit` users do.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, p *probe) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return &client{base: base, hc: &http.Client{Transport: &probedTransport{inner: tr, p: p}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run drives one submission to its ResultSet. With obs set it also records
// item frame arrival times and fetches the job's status timestamps, after
// the result is in hand.
func (c *client) run(ctx context.Context, manifest []byte, obs *subObs) (*campaign.ResultSet, error) {
	var st service.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", manifest, http.StatusAccepted, &st); err != nil {
		return nil, err
	}
	if err := c.follow(ctx, st.ID, obs); err != nil {
		return nil, err
	}
	var rs campaign.ResultSet
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+st.ID+"/results", nil, http.StatusOK, &rs); err != nil {
		return nil, err
	}
	if obs != nil {
		var fin service.JobStatus
		if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+st.ID, nil, http.StatusOK, &fin); err != nil {
			return nil, err
		}
		obs.job = &fin
	}
	return &rs, nil
}

// do sends one request and decodes a JSON response with the wanted status.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// follow reads the job's event stream until the terminal state frame and
// fails unless the job finished done.
func (c *client) follow(ctx context.Context, id string, obs *subObs) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	var typ string
	for ctx.Err() == nil {
		line, err := rd.ReadString('\n')
		if err != nil {
			return fmt.Errorf("events %s: stream ended before the terminal frame: %w", id, err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if obs != nil {
				obs.sseFrames++
			}
			switch typ {
			case "state":
				var ev service.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("events %s: decode state frame: %w", id, err)
				}
				if ev.State != service.StateDone {
					return fmt.Errorf("events %s: job ended %s: %s", id, ev.State, ev.Error)
				}
				return nil
			case "dropped":
				return fmt.Errorf("events %s: stream dropped frames", id)
			case "item":
				if obs != nil {
					var ev service.Event
					if err := json.Unmarshal([]byte(data), &ev); err != nil {
						return fmt.Errorf("events %s: decode item frame: %w", id, err)
					}
					obs.itemEvent(ev.Index, ev.State == service.StateRunning)
				}
			}
		}
	}
	return ctx.Err()
}
