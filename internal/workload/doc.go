// Package workload generates the paper's three evaluation datasets
// (Table 1) at simulator scale, plus the §7.1 random query workloads with
// zoom-level range conditions, train/validation/evaluation splits, and
// viable-plan bucketing (Tables 2–3).
//
// Scaling: each generated table stores Rows rows with a ScaleFactor chosen
// so Rows × ScaleFactor equals the paper's record count; the engine's
// virtual clock reports execution times at that real scale.
//
// # Layout
//
//   - datasets.go — the Twitter, Taxi, and TPC-H generators and the
//     Dataset bundle (database + the metadata query generation and the
//     serving layer need: filter columns, extents, time domain). A built
//     Dataset is immutable; the serving and cluster layers share one
//     instance across servers and replicas freely.
//   - queries.go — QuerySpec workload generation: random spatio-temporal
//     keyword queries at paper-realistic selectivities, deterministic per
//     seed.
//   - registry.go — Registry, the serving layer's named-dataset directory:
//     an ordered list of named builders, which middleware.NewGateway runs
//     once each before it returns, and StandardBuilder for the built-in
//     datasets at any row count.
//
// Generation is deterministic per (dataset config, seed): two processes
// building "twitter" at the same row count hold bit-identical data —
// which is why a cluster replica can regenerate a dataset instead of
// shipping it and still serve byte-identical responses.
package workload
