//! The MISP workspace's benchmarks live under `benches/`: criterion
//! micro-benchmarks of the mechanisms and machines, and the `engine`
//! wall-clock trajectory bench behind `BENCH_engine.json`.  The paper's
//! tables and figures are reproduced by the harness's `sweep` binary
//! (`sweep <grid>`, grids in `misp_harness::grids`), not here.  This
//! library target is empty; it exists because a package needs one.

#![forbid(unsafe_code)]
