package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"

	"github.com/maliva/maliva/internal/nn"
)

// AgentConfig holds the deep-Q-learning hyperparameters (§5.1).
type AgentConfig struct {
	// Hidden sizes; nil defaults to two hidden layers sized like the input
	// layer, the paper's Fig. 8 architecture.
	Hidden []int
	// Gamma is the discount factor. Episodes are short and the reward is
	// terminal, so a value near 1 works well.
	Gamma float64
	// LR is the Adam learning rate.
	LR float64
	// BatchSize is the minibatch size per replay update.
	BatchSize int
	// ReplayCap is the replay-memory capacity C.
	ReplayCap int
	// EpsStart/EpsEnd/EpsDecayEpisodes define the ε-greedy schedule:
	// ε decays exponentially from start to end over the given episodes.
	EpsStart, EpsEnd float64
	EpsDecayEpisodes int
	// TargetSyncEvery syncs the target network every k episodes.
	TargetSyncEvery int
	// MaxEpochs bounds training passes over the workload.
	MaxEpochs int
	// MinEpochs forces at least this many passes before convergence checks.
	MinEpochs int
	// ConvergeDelta stops training when the epoch's total reward improves
	// by less than this fraction (paper: 1%).
	ConvergeDelta float64
	// UpdatesPerEpisode is how many minibatch updates run after each query
	// (Algorithm 1 line 21 does one; a few speed up convergence).
	UpdatesPerEpisode int
	// Seed drives all training randomness.
	Seed int64
}

// DefaultAgentConfig returns hyperparameters that train in seconds on the
// repo's workload sizes.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		Gamma:             0.99,
		LR:                1e-3,
		BatchSize:         32,
		ReplayCap:         20000,
		EpsStart:          1.0,
		EpsEnd:            0.05,
		EpsDecayEpisodes:  600,
		TargetSyncEvery:   25,
		MaxEpochs:         30,
		MinEpochs:         4,
		ConvergeDelta:     0.01,
		UpdatesPerEpisode: 4,
		Seed:              7,
	}
}

// Agent is the MDP agent: a Q-network mapping states to per-option Q-values,
// with a target network and replay memory for stable training.
type Agent struct {
	Cfg      AgentConfig
	NumOpts  int
	StateDim int

	net    *nn.MLP
	target *nn.MLP
	adam   *nn.Adam
	replay *Replay
	rng    *rand.Rand

	episodes int
}

// NewAgent creates an agent for an option space of size n.
func NewAgent(cfg AgentConfig, n int) *Agent {
	dim := StateDim(n)
	hidden := cfg.Hidden
	if len(hidden) == 0 {
		hidden = []int{dim, dim}
	}
	sizes := append([]int{dim}, hidden...)
	sizes = append(sizes, n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := &Agent{
		Cfg:      cfg,
		NumOpts:  n,
		StateDim: dim,
		net:      nn.NewMLP(sizes, rng),
		replay:   NewReplay(cfg.ReplayCap),
		rng:      rng,
	}
	a.target = a.net.Clone()
	a.adam = nn.NewAdam(cfg.LR)
	return a
}

// epsilon returns the current exploration rate.
func (a *Agent) epsilon() float64 {
	d := float64(a.Cfg.EpsDecayEpisodes)
	if d <= 0 {
		d = 1
	}
	return a.Cfg.EpsEnd + (a.Cfg.EpsStart-a.Cfg.EpsEnd)*math.Exp(-float64(a.episodes)/d)
}

// Greedy returns the unexplored option with the highest Q-value
// (Algorithm 2 line 5).
func (a *Agent) Greedy(state []float64, explored []bool) int {
	q := a.net.Forward(state)
	best, bestQ := -1, math.Inf(-1)
	for i, ex := range explored {
		if ex {
			continue
		}
		if q[i] > bestQ {
			best, bestQ = i, q[i]
		}
	}
	return best
}

// actTrain picks an ε-greedy action over unexplored options.
func (a *Agent) actTrain(state []float64, explored []bool) int {
	if a.rng.Float64() < a.epsilon() {
		var candidates []int
		for i, ex := range explored {
			if !ex {
				candidates = append(candidates, i)
			}
		}
		return candidates[a.rng.Intn(len(candidates))]
	}
	return a.Greedy(state, explored)
}

// RunEpisode plays one training episode on env, storing experiences.
// It returns the episode's terminal reward and outcome.
func (a *Agent) RunEpisode(env *Env) (float64, Outcome) {
	env.Reset()
	var lastReward float64
	for !env.Done() {
		s := env.State()
		act := a.actTrain(s, env.Explored())
		r, _ := env.Step(act)
		exp := Experience{
			State:        s,
			Action:       act,
			NextState:    env.State(),
			Reward:       r,
			Done:         env.Done(),
			NextExplored: append([]bool(nil), env.Explored()...),
		}
		a.replay.Add(exp)
		lastReward = r
	}
	a.episodes++
	for u := 0; u < a.Cfg.UpdatesPerEpisode; u++ {
		a.update()
	}
	if a.Cfg.TargetSyncEvery > 0 && a.episodes%a.Cfg.TargetSyncEvery == 0 {
		if err := a.target.CopyWeightsFrom(a.net); err != nil {
			panic("core: target sync: " + err.Error())
		}
	}
	return lastReward, env.Outcome()
}

// update performs one minibatch Q-learning step: for each sampled
// experience, the target is r (terminal) or r + γ·max over unexplored
// actions of the target network's Q(s′) (Bellman).
func (a *Agent) update() {
	if a.replay.Len() < a.Cfg.BatchSize {
		return
	}
	batch := a.replay.Sample(a.rng, a.Cfg.BatchSize)
	a.net.ZeroGrad()
	grad := make([]float64, a.NumOpts)
	for _, e := range batch {
		y := e.Reward
		if !e.Done {
			tq := a.target.Forward(e.NextState)
			best := math.Inf(-1)
			for i, ex := range e.NextExplored {
				if !ex && tq[i] > best {
					best = tq[i]
				}
			}
			if !math.IsInf(best, -1) {
				y += a.Cfg.Gamma * best
			}
		}
		q := a.net.Forward(e.State)
		for i := range grad {
			grad[i] = 0
		}
		// d/dQ (Q − y)² = 2(Q − y); averaged over the batch.
		grad[e.Action] = 2 * (q[e.Action] - y) / float64(len(batch))
		a.net.Backward(grad)
	}
	a.net.ClipGrad(5.0)
	a.adam.Step(a.net)
}

// TrainResult reports a training run.
type TrainResult struct {
	Epochs        int
	Episodes      int
	RewardByEpoch []float64
}

// Train runs Algorithm 1 over the workload contexts until the total epoch
// reward converges (<ConvergeDelta relative improvement) or MaxEpochs is
// reached. envCfg supplies the budget, QTE and β.
func (a *Agent) Train(contexts []*QueryContext, envCfg EnvConfig) TrainResult {
	res := TrainResult{}
	order := make([]int, len(contexts))
	for i := range order {
		order[i] = i
	}
	prev := math.Inf(-1)
	for epoch := 0; epoch < a.Cfg.MaxEpochs; epoch++ {
		// Shuffle to reduce ordering bias (Algorithm 1 line 4).
		a.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, qi := range order {
			env := NewEnv(envCfg, contexts[qi])
			r, _ := a.RunEpisode(env)
			total += r
			res.Episodes++
		}
		res.Epochs++
		res.RewardByEpoch = append(res.RewardByEpoch, total)
		if epoch+1 >= a.Cfg.MinEpochs && !math.IsInf(prev, -1) {
			denom := math.Max(math.Abs(prev), 1e-9)
			if (total-prev)/denom < a.Cfg.ConvergeDelta && total >= prev-0.05*denom {
				break
			}
		}
		prev = total
	}
	return res
}

// Rewrite runs Algorithm 2: starting from the initial state, repeatedly
// explore the highest-Q unexplored option until termination, then return
// the outcome.
func (a *Agent) Rewrite(env *Env) Outcome {
	env.Reset()
	return a.rewriteFrom(env)
}

// RewriteFrom continues Algorithm 2 on an environment that has already been
// reset (possibly with inherited elapsed time, for the two-stage rewriter).
func (a *Agent) RewriteFrom(env *Env) Outcome { return a.rewriteFrom(env) }

func (a *Agent) rewriteFrom(env *Env) Outcome {
	for !env.Done() {
		act := a.Greedy(env.State(), env.Explored())
		if act < 0 {
			panic("core: no unexplored options but episode not done")
		}
		env.Step(act)
	}
	return env.Outcome()
}

// agentJSON is the serialized agent.
type agentJSON struct {
	NumOpts int             `json:"num_opts"`
	Net     json.RawMessage `json:"net"`
}

// MarshalJSON saves the policy network and option-space size.
func (a *Agent) MarshalJSON() ([]byte, error) {
	netB, err := json.Marshal(a.net)
	if err != nil {
		return nil, err
	}
	return json.Marshal(agentJSON{NumOpts: a.NumOpts, Net: netB})
}

// SaveAgentFile writes a policy snapshot readable by LoadAgentFile.
// cmd/maliva-train is its one writer, and maliva-server -agent loads what it
// writes.
func SaveAgentFile(path string, a *Agent) error {
	data, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return fmt.Errorf("core: serializing agent snapshot: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: writing agent snapshot: %w", err)
	}
	return nil
}

// LoadAgentFile reads a policy snapshot saved by SaveAgentFile or
// cmd/maliva-train (an Agent marshaled to JSON) and restores it with the default hyperparameters
// — the loaded agent is used for inference, so the training knobs are
// irrelevant. Callers that keep training should use LoadAgent directly.
func LoadAgentFile(path string) (*Agent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading agent snapshot: %w", err)
	}
	a, err := LoadAgent(data, DefaultAgentConfig())
	if err != nil {
		return nil, fmt.Errorf("core: parsing agent snapshot %s: %w", path, err)
	}
	return a, nil
}

// LoadAgent restores an agent saved with MarshalJSON, using cfg for any
// further training.
func LoadAgent(data []byte, cfg AgentConfig) (*Agent, error) {
	var in agentJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	a := NewAgent(cfg, in.NumOpts)
	var net nn.MLP
	if err := json.Unmarshal(in.Net, &net); err != nil {
		return nil, err
	}
	a.net = &net
	a.target = net.Clone()
	return a, nil
}
