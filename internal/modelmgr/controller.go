package modelmgr

import (
	"context"
	"encoding/json"
	"fmt"

	"loglens/internal/bus"
	"loglens/internal/metrics"
)

// ControlTopic is the bus topic carrying model-control instructions.
const ControlTopic = "model-control"

// Op is a model-control operation (§II: "Models can be added or updated or
// deleted, and each operation needs a separate instruction").
type Op string

const (
	// OpAdd installs a model for a source that had none.
	OpAdd Op = "add"
	// OpUpdate replaces a running model (zero-downtime rebroadcast).
	OpUpdate Op = "update"
	// OpDelete removes a model; its detectors go idle.
	OpDelete Op = "delete"
)

// Instruction is one control message from the model manager to the
// anomaly detectors.
type Instruction struct {
	// Op is the operation.
	Op Op `json:"op"`
	// ModelID names the model in the model storage.
	ModelID string `json:"modelId"`
	// Source scopes the instruction to one log source ("" = all).
	Source string `json:"source,omitempty"`
}

// Controller relays control instructions over the bus: the model manager
// notifies it of model changes, and running detectors watch for
// instructions and act on them.
type Controller struct {
	bus bus.Broker
	reg *metrics.Registry
}

// NewController constructs a Controller, declaring the control topic.
func NewController(b bus.Broker) (*Controller, error) {
	if err := b.CreateTopic(ControlTopic, 1); err != nil {
		return nil, err
	}
	return &Controller{bus: b}, nil
}

// Instrument installs a registry counting announced instructions by op
// (modelmgr_announced_total). Announcements are rare control-plane events,
// so the per-op counter is resolved on each call.
func (c *Controller) Instrument(reg *metrics.Registry) { c.reg = reg }

// Announce publishes one control instruction.
func (c *Controller) Announce(ins Instruction) error {
	if ins.Op != OpAdd && ins.Op != OpUpdate && ins.Op != OpDelete {
		return fmt.Errorf("modelmgr: invalid control op %q", ins.Op)
	}
	data, err := json.Marshal(ins)
	if err != nil {
		return err
	}
	_, _, err = c.bus.Publish(ControlTopic, ins.ModelID, data, map[string]string{"kind": "control"})
	if err == nil && c.reg != nil {
		c.reg.Counter("modelmgr_announced_total", "op", string(ins.Op)).Inc()
	}
	return err
}

// Watch delivers control instructions to fn until the context is done.
// Each watcher group sees every instruction once.
func (c *Controller) Watch(ctx context.Context, group string, fn func(Instruction)) error {
	consumer, err := c.bus.Subscribe(group, ControlTopic)
	if err != nil {
		return err
	}
	for {
		msgs, err := consumer.Poll(ctx, 0)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		for _, m := range msgs {
			var ins Instruction
			if err := json.Unmarshal(m.Value, &ins); err != nil {
				continue // malformed control messages are dropped
			}
			fn(ins)
		}
	}
}
