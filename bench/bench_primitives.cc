// Primitive microbenchmarks (google-benchmark): the FFT/MSM/lookup/field-op
// timings that the optimizer's hardware profile is built from (§7.4).
//
// Besides the usual console table, the binary writes BENCH_primitives.json
// (one record per benchmark: op, size, seconds, threads) so perf regressions
// can be tracked by machines rather than eyeballs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/ec/g1.h"
#include "src/ff/fr_key.h"
#include "src/model/zoo.h"
#include "src/pcs/kzg.h"
#include "src/plonk/constraint_system.h"
#include "src/plonk/quotient.h"
#include "src/poly/domain.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/plan.h"

#include "bench/bench_util.h"

namespace zkml {
namespace {

// `count` columns of `n` random field elements, drawn in order from `seed`.
std::vector<std::vector<Fr>> RandomColumns(uint64_t seed, size_t count, size_t n) {
  Rng rng(seed);
  std::vector<std::vector<Fr>> columns(count, std::vector<Fr>(n));
  for (std::vector<Fr>& column : columns) {
    for (Fr& x : column) {
      x = Fr::Random(rng);
    }
  }
  return columns;
}

std::vector<Fr> RandomFrs(uint64_t seed, size_t n) {
  return std::move(RandomColumns(seed, 1, n)[0]);
}

// 2^k points for the benchmark's first argument k.
size_t Points(const benchmark::State& state) { return static_cast<size_t>(1) << state.range(0); }

// A dependent chain of one field operation: each result feeds the next. For
// add and subtract, random operands send the carry and borrow either way
// about half the time, so a data-dependent branch in either would show here.
template <typename Op>
void FieldChain(benchmark::State& state, uint64_t seed, Op op) {
  Rng rng(seed);
  Fr a = Fr::Random(rng);
  Fr b = Fr::Random(rng);
  for (auto _ : state) {
    a = op(a, b);
    benchmark::DoNotOptimize(a);
  }
  state.counters["size"] = 1;
}

void BM_FieldMul(benchmark::State& state) {
  FieldChain(state, 1, [](const Fr& a, const Fr& b) { return a * b; });
}
BENCHMARK(BM_FieldMul);

void BM_FieldAdd(benchmark::State& state) {
  FieldChain(state, 1, [](const Fr& a, const Fr& b) { return a + b; });
}
BENCHMARK(BM_FieldAdd);

void BM_FieldSub(benchmark::State& state) {
  FieldChain(state, 1, [](const Fr& a, const Fr& b) { return a - b; });
}
BENCHMARK(BM_FieldSub);

void BM_FieldInverse(benchmark::State& state) {
  FieldChain(state, 2, [](const Fr& a, const Fr&) { return a.Inverse() + Fr::One(); });
}
BENCHMARK(BM_FieldInverse);

void BM_Fft(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  EvaluationDomain dom(k);
  const std::vector<Fr> coeffs = RandomFrs(3, dom.size());
  for (auto _ : state) {
    auto evals = dom.FftFromCoeffs(coeffs);
    benchmark::DoNotOptimize(evals);
  }
  state.SetComplexityN(dom.size());
  state.counters["size"] = static_cast<double>(dom.size());
}
BENCHMARK(BM_Fft)->DenseRange(10, 14, 1)->Arg(16)->Arg(18)->Unit(benchmark::kMillisecond);

// The quotient stage's FFT shape: 100 coset FFTs of 2^k (mnist's columns
// at k = 9 on a 4x extended domain) in one TaskGroup, one column per task.
// Against BM_Fft it sets the serial-FFT threshold (DESIGN.md §5): a round
// of many transforms runs fastest with each on one core, while a lone large
// one still wants the pool.
void BM_CosetFftRound(benchmark::State& state) {
  const int ext_n_log = static_cast<int>(state.range(0));
  const int ext_k = 2;
  EvaluationDomain dom(ext_n_log - ext_k);
  const std::vector<std::vector<Fr>> coeffs = RandomColumns(3, 100, dom.size());
  std::vector<std::vector<Fr>> out(coeffs.size());
  dom.CosetFftFromCoeffsInto(coeffs[0], ext_k, &out[0]);  // build the coset tables
  for (auto _ : state) {
    {
      TaskGroup group;
      for (size_t i = 0; i < coeffs.size(); ++i) {
        group.Submit([&, i] { dom.CosetFftFromCoeffsInto(coeffs[i], ext_k, &out[i]); });
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.counters["size"] = static_cast<double>(dom.size() << ext_k);
  state.counters["ffts"] = static_cast<double>(coeffs.size());
}
BENCHMARK(BM_CosetFftRound)->DenseRange(11, 13, 1)->Unit(benchmark::kMillisecond);

void BM_Msm(benchmark::State& state) {
  const size_t n = Points(state);
  std::vector<G1Affine> bases = DeriveGenerators(4, n);
  const std::vector<Fr> scalars = RandomFrs(5, n);
  for (auto _ : state) {
    G1 r = Msm(bases, scalars);
    benchmark::DoNotOptimize(r);
  }
  state.counters["size"] = static_cast<double>(n);
}
BENCHMARK(BM_Msm)->DenseRange(8, 16, 1)->Unit(benchmark::kMillisecond);

void BM_LookupBuild(benchmark::State& state) {
  const size_t n = Points(state);
  const std::vector<Fr> table = RandomFrs(6, n);
  for (auto _ : state) {
    std::unordered_map<FrKey, size_t, FrKeyHash> first;
    first.reserve(2 * n);
    for (size_t i = 0; i < n; ++i) {
      first.emplace(FrKey(table[i]), i);
    }
    benchmark::DoNotOptimize(first);
  }
  state.counters["size"] = static_cast<double>(n);
}
BENCHMARK(BM_LookupBuild)->DenseRange(10, 14, 2)->Unit(benchmark::kMillisecond);

void BM_G1ScalarMul(benchmark::State& state) {
  Rng rng(7);
  G1 g = G1::Generator();
  Fr s = Fr::Random(rng);
  for (auto _ : state) {
    G1 r = g.ScalarMul(s);
    benchmark::DoNotOptimize(r);
  }
  state.counters["size"] = 1;
}
BENCHMARK(BM_G1ScalarMul)->Unit(benchmark::kMicrosecond);

// One Lagrange-basis build at 2^k by the G1 inverse FFT (the IPA backend's
// keygen pays it once per setup and size): (k - 2) * 2^{k-1} + 1 twiddle
// scalar multiplications plus 2^k scalings, split across the pool. The CI
// set-up gate compares BM_LagrangeBasis/9 against 2305 x BM_G1ScalarMul.
void BM_LagrangeBasis(benchmark::State& state) {
  const size_t n = Points(state);
  const KzgSetup setup = KzgSetup::Create(n, 11);
  for (auto _ : state) {
    std::vector<G1Affine> lagrange = LagrangeBasesFromMonomial(setup.powers);
    benchmark::DoNotOptimize(lagrange);
  }
  state.counters["size"] = static_cast<double>(n);
}
BENCHMARK(BM_LagrangeBasis)->Arg(9)->Arg(11)->Unit(benchmark::kMillisecond);

// The KZG set-up a compile pays at 2^k: the powers of tau and the 2^k
// Lagrange basis, 2^{k+1} products of G read from the generator's fixed-base
// table (built by the first iteration, warm after). BM_LagrangeBasis/k is
// the G1 inverse FFT this replaced for KZG (IPA still runs it); the CI KZG
// set-up gate holds BM_KzgSetup/9 <= 0.25 x BM_LagrangeBasis/9.
void BM_KzgSetup(benchmark::State& state) {
  const size_t n = Points(state);
  for (auto _ : state) {
    const KzgSetup setup = KzgSetup::Create(n, 11);
    std::vector<G1Affine> lagrange = setup.LagrangeBasis(n);
    benchmark::DoNotOptimize(lagrange);
  }
  state.counters["size"] = static_cast<double>(n);
}
BENCHMARK(BM_KzgSetup)->Arg(9)->Arg(11)->Unit(benchmark::kMillisecond);

// --- Quotient evaluation: compiled calculation plans vs. legacy AST walk ---
//
// A representative mixed circuit (degree-3 gate, rotated gates, one two-column
// lookup, multi-chunk permutation) evaluated over the extended coset with
// random tables. The compiled path is what the prover now runs; the legacy
// path reproduces the per-constraint Expression::EvaluateVector walk the
// prover used before.
struct QuotientBench {
  ConstraintSystem cs;
  Column inst, a, b, c, d, v, w;
  Column sel, srot, slk, tbl_in, tbl_out;
  std::vector<Column> perm_cols;

  size_t n = 0, ext_n = 0, ext_factor = 0;
  int ext_k = 0;
  size_t num_chunks = 0;
  int chunk_size = 0;

  std::vector<std::vector<Fr>> fixed, advice, instance, sigma, z, m, h, s;
  std::vector<Fr> l0, llast, coset_x, zh_inv, delta_pow;
  Fr theta, beta, gamma, y;

  explicit QuotientBench(int k) {
    inst = cs.AddInstanceColumn();
    a = cs.AddAdviceColumn(true);
    b = cs.AddAdviceColumn(false);
    c = cs.AddAdviceColumn(true);
    d = cs.AddAdviceColumn(false);
    v = cs.AddAdviceColumn(true);
    w = cs.AddAdviceColumn(true);
    sel = cs.AddFixedColumn();
    srot = cs.AddFixedColumn();
    slk = cs.AddFixedColumn();
    tbl_in = cs.AddFixedColumn();
    tbl_out = cs.AddFixedColumn();
    Expression q = Expression::Query(sel);
    Expression ea = Expression::Query(a);
    Expression eb = Expression::Query(b);
    Expression ec = Expression::Query(c);
    cs.AddGate("mac", q * (ea * eb + ea - ec));
    Expression ed = Expression::Query(d);
    cs.AddGate("square-chain", Expression::Query(srot) * (Expression::Query(d, 1) - ed * ed));
    Expression ql = Expression::Query(slk);
    cs.AddLookup("cube", {ql * Expression::Query(v), ql * Expression::Query(w)},
                 {tbl_in, tbl_out});
    perm_cols = cs.PermutationColumns();

    n = static_cast<size_t>(1) << k;
    ext_k = cs.QuotientExtensionK();
    ext_factor = static_cast<size_t>(1) << ext_k;
    ext_n = n << ext_k;
    num_chunks = cs.NumPermutationChunks();
    chunk_size = cs.PermutationChunkSize();

    uint64_t seed = 20260806;
    auto rand_table = [&](size_t count) { return RandomColumns(seed++, count, ext_n); };
    fixed = rand_table(cs.num_fixed_columns());
    advice = rand_table(cs.num_advice_columns());
    instance = rand_table(cs.num_instance_columns());
    sigma = rand_table(perm_cols.size());
    z = rand_table(num_chunks);
    m = rand_table(1);
    h = rand_table(1);
    s = rand_table(1);
    l0 = rand_table(1)[0];
    llast = rand_table(1)[0];
    coset_x = rand_table(1)[0];
    zh_inv = rand_table(1)[0];
    Rng rng(seed);
    theta = Fr::Random(rng);
    beta = Fr::Random(rng);
    gamma = Fr::Random(rng);
    y = Fr::Random(rng);
    delta_pow.resize(perm_cols.size());
    if (!perm_cols.empty()) {
      delta_pow[0] = Fr::One();
      for (size_t i = 1; i < perm_cols.size(); ++i) {
        delta_pow[i] = delta_pow[i - 1] * FrDelta();
      }
    }
  }

  QuotientEvaluator::Tables Tables() const {
    QuotientEvaluator::Tables t;
    for (const auto& col : fixed) t.fixed.push_back(&col);
    for (const auto& col : advice) t.advice.push_back(&col);
    for (const auto& col : instance) t.instance.push_back(&col);
    for (const auto& col : sigma) t.sigma.push_back(&col);
    for (const auto& col : z) t.z.push_back(&col);
    t.m.push_back(&m[0]);
    t.h.push_back(&h[0]);
    t.s.push_back(&s[0]);
    t.l0 = &l0;
    t.llast = &llast;
    t.coset_x = &coset_x;
    t.zh_inv = &zh_inv;
    t.ext_n = ext_n;
    t.ext_factor = ext_factor;
    return t;
  }

  // The pre-compilation quotient numerator: per-constraint EvaluateVector
  // walks plus full-width temporary vectors, as the prover used to run.
  std::vector<Fr> EvaluateLegacy() const {
    auto coset_resolve = [&](const ColumnQuery& cq, size_t j) -> Fr {
      int64_t idx = static_cast<int64_t>(j) +
                    static_cast<int64_t>(cq.rotation) * static_cast<int64_t>(ext_factor);
      idx %= static_cast<int64_t>(ext_n);
      if (idx < 0) {
        idx += static_cast<int64_t>(ext_n);
      }
      const size_t jj = static_cast<size_t>(idx);
      switch (cq.column.type) {
        case ColumnType::kInstance:
          return instance[cq.column.index][jj];
        case ColumnType::kAdvice:
          return advice[cq.column.index][jj];
        case ColumnType::kFixed:
          return fixed[cq.column.index][jj];
      }
      return Fr::Zero();
    };
    auto shifted = [&](const std::vector<Fr>& vec, size_t j) -> const Fr& {
      return vec[(j + ext_factor) % ext_n];
    };
    std::vector<Fr> numerator(ext_n, Fr::Zero());
    Fr y_pow = Fr::One();
    auto add_constraint_vec = [&](const std::vector<Fr>& vals) {
      for (size_t j = 0; j < ext_n; ++j) {
        numerator[j] += vals[j] * y_pow;
      }
      y_pow *= y;
    };
    for (const Gate& gate : cs.gates()) {
      add_constraint_vec(gate.poly.EvaluateVector(ext_n, coset_resolve));
    }
    for (size_t l = 0; l < cs.lookups().size(); ++l) {
      const LookupArgument& lk = cs.lookups()[l];
      std::vector<Fr> f_coset(ext_n, Fr::Zero());
      std::vector<Fr> t_coset(ext_n, Fr::Zero());
      Fr theta_j = Fr::One();
      for (size_t jn = 0; jn < lk.inputs.size(); ++jn) {
        std::vector<Fr> in = lk.inputs[jn].EvaluateVector(ext_n, coset_resolve);
        const std::vector<Fr>& tab = fixed[lk.table[jn].index];
        for (size_t j = 0; j < ext_n; ++j) {
          f_coset[j] += in[j] * theta_j;
          t_coset[j] += tab[j] * theta_j;
        }
        theta_j *= theta;
      }
      std::vector<Fr> c0(ext_n), c1(ext_n), c2(ext_n), c3(ext_n);
      ParallelFor(0, ext_n, [&](size_t lo, size_t hi) {
        for (size_t j = lo; j < hi; ++j) {
          const Fr bf = beta + f_coset[j];
          const Fr bt = beta + t_coset[j];
          c0[j] = bf * bt * h[l][j] - (bt - m[l][j] * bf);
          c1[j] = l0[j] * s[l][j];
          const Fr lactive = Fr::One() - llast[j];
          c2[j] = lactive * (shifted(s[l], j) - s[l][j] - h[l][j]);
          c3[j] = llast[j] * (s[l][j] + h[l][j]);
        }
      });
      add_constraint_vec(c0);
      add_constraint_vec(c1);
      add_constraint_vec(c2);
      add_constraint_vec(c3);
    }
    if (num_chunks > 0) {
      std::vector<Fr> p0(ext_n);
      for (size_t j = 0; j < ext_n; ++j) {
        p0[j] = l0[j] * (z[0][j] - Fr::One());
      }
      add_constraint_vec(p0);
      for (size_t ck = 0; ck < num_chunks; ++ck) {
        const size_t col_begin = ck * static_cast<size_t>(chunk_size);
        const size_t col_end = std::min(perm_cols.size(), col_begin + chunk_size);
        std::vector<Fr> num(ext_n, Fr::One());
        std::vector<Fr> den(ext_n, Fr::One());
        ParallelFor(0, ext_n, [&](size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            for (size_t i = col_begin; i < col_end; ++i) {
              const Fr f = coset_resolve(ColumnQuery{perm_cols[i], 0}, j);
              num[j] *= f + beta * delta_pow[i] * coset_x[j] + gamma;
              den[j] *= f + beta * sigma[i][j] + gamma;
            }
          }
        });
        const size_t next = (ck + 1) % num_chunks;
        std::vector<Fr> upd(ext_n), trans(ext_n);
        ParallelFor(0, ext_n, [&](size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            const Fr lactive = Fr::One() - llast[j];
            upd[j] = lactive * (shifted(z[ck], j) * den[j] - z[ck][j] * num[j]);
            trans[j] = llast[j] * (shifted(z[next], j) * den[j] - z[ck][j] * num[j]);
          }
        });
        add_constraint_vec(upd);
        add_constraint_vec(trans);
      }
    }
    for (size_t j = 0; j < ext_n; ++j) {
      numerator[j] *= zh_inv[j];
    }
    return numerator;
  }
};

void BM_QuotientCompiled(benchmark::State& state) {
  QuotientBench bench(static_cast<int>(state.range(0)));
  const QuotientEvaluator qe(bench.cs, bench.perm_cols);
  const QuotientEvaluator::Tables tables = bench.Tables();
  QuotientEvaluator::Challenges ch;
  ch.theta = bench.theta;
  ch.beta = bench.beta;
  ch.gamma = bench.gamma;
  ch.y = bench.y;
  ch.delta_pow = &bench.delta_pow;
  std::vector<Fr> out;
  for (auto _ : state) {
    qe.Evaluate(tables, ch, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["size"] = static_cast<double>(bench.n);
}
BENCHMARK(BM_QuotientCompiled)->DenseRange(12, 16, 2)->Unit(benchmark::kMillisecond);

void BM_QuotientLegacy(benchmark::State& state) {
  QuotientBench bench(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<Fr> out = bench.EvaluateLegacy();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["size"] = static_cast<double>(bench.n);
}
BENCHMARK(BM_QuotientLegacy)->DenseRange(12, 16, 2)->Unit(benchmark::kMillisecond);

// --- Commitments from evaluation form vs. interpolate-then-commit ---------

void BM_CommitLagrange(benchmark::State& state) {
  const size_t n = Points(state);
  KzgPcs pcs(std::make_shared<KzgSetup>(KzgSetup::Create(n, 11)));
  const std::vector<Fr> evals = RandomFrs(8, n);
  // Warm the Lagrange-basis cache: the G1 FFT is a one-time per-setup cost
  // (paid at keygen in the prover), not a per-commit cost.
  benchmark::DoNotOptimize(pcs.CommitLagrange(evals));
  for (auto _ : state) {
    PcsCommitment c = pcs.CommitLagrange(evals);
    benchmark::DoNotOptimize(c);
  }
  state.counters["size"] = static_cast<double>(n);
}
BENCHMARK(BM_CommitLagrange)->DenseRange(10, 14, 2)->Unit(benchmark::kMillisecond);

void BM_CommitViaIfft(benchmark::State& state) {
  const size_t n = Points(state);
  KzgPcs pcs(std::make_shared<KzgSetup>(KzgSetup::Create(n, 11)));
  EvaluationDomain dom(static_cast<int>(state.range(0)));
  const std::vector<Fr> evals = RandomFrs(8, n);
  for (auto _ : state) {
    PcsCommitment c = pcs.Commit(dom.IfftToCoeffs(evals));
    benchmark::DoNotOptimize(c);
  }
  state.counters["size"] = static_cast<double>(n);
}
BENCHMARK(BM_CommitViaIfft)->DenseRange(10, 14, 2)->Unit(benchmark::kMillisecond);

// One prover commit round: 30 evaluation vectors of 2^k points (mnist's
// lookup-perm-commit round is 30 x 2^9), committed as one batched call
// (second argument 1) against a loop of single calls (0). Below the MSM's
// parallel threshold each lone MSM runs serially, so only the batch spreads
// the round over the pool.
void BM_CommitRound(benchmark::State& state) {
  const bool batched = state.range(1) != 0;
  const size_t n = Points(state);
  KzgPcs pcs(std::make_shared<KzgSetup>(KzgSetup::Create(n, 11)));
  const std::vector<std::vector<Fr>> round = RandomColumns(8, 30, n);
  benchmark::DoNotOptimize(pcs.CommitLagrange(round[0]));  // warm the basis cache
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(pcs.CommitLagrange(PolyPointers(round)));
    } else {
      for (const std::vector<Fr>& v : round) {
        benchmark::DoNotOptimize(pcs.CommitLagrange(v));
      }
    }
  }
  state.counters["size"] = static_cast<double>(n);
  state.counters["commits"] = static_cast<double>(round.size());
}
BENCHMARK(BM_CommitRound)->Args({9, 0})->Args({9, 1})->Unit(benchmark::kMillisecond);

// The same 30 x 2^k round as BM_CommitRound, run through bare Msm() against
// the Lagrange bases in one TaskGroup: the batched round without fixed-base
// tables. The CI round gate holds BM_CommitRound/9/1 <= 0.75 x BM_MsmRound/9;
// both run in one process on one pool, so the ratio does not depend on host
// speed.
void BM_MsmRound(benchmark::State& state) {
  const size_t n = Points(state);
  const std::vector<G1Affine> lagrange = KzgSetup::Create(n, 11).LagrangeBasis(n);
  const std::vector<std::vector<Fr>> round = RandomColumns(8, 30, n);
  std::vector<G1> out(round.size());
  for (auto _ : state) {
    {
      TaskGroup group;
      for (size_t i = 0; i < round.size(); ++i) {
        group.Submit([&, i] { out[i] = Msm(lagrange.data(), round[i].data(), n); });
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.counters["size"] = static_cast<double>(n);
  state.counters["commits"] = static_cast<double>(round.size());
}
BENCHMARK(BM_MsmRound)->Arg(9)->Unit(benchmark::kMillisecond);

// --- threads>1 series ------------------------------------------------------
//
// The MSM/FFT kernels size their parallelism off the affinity-sized global
// pool, so on a CPU-restricted runner the series above measure the kernels
// single-threaded. These series decompose the same work across an ad-hoc pool
// of hardware_concurrency workers (at least 2) and stamp their records with
// that thread count, so the JSON dump carries a measured threads>1 point for
// the optimizer's hardware profile on multi-core hosts.

size_t MtThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::max<size_t>(2, hc == 0 ? 1 : hc);
}

void BM_MsmMt(benchmark::State& state) {
  const size_t n = Points(state);
  const size_t threads = MtThreads();
  ThreadPool pool(threads);
  std::vector<G1Affine> bases = DeriveGenerators(4, n);
  const std::vector<Fr> scalars = RandomFrs(5, n);
  const size_t chunk = (n + threads - 1) / threads;
  for (auto _ : state) {
    // Partial MSMs over contiguous slices, summed at the end: the natural
    // decomposition for a sharded prover whose shards commit independently.
    std::vector<G1> partial(threads, G1::Identity());
    {
      TaskGroup group(pool);
      for (size_t t = 0; t < threads; ++t) {
        const size_t lo = std::min(n, t * chunk);
        const size_t hi = std::min(n, lo + chunk);
        if (lo >= hi) continue;
        group.Submit([&bases, &scalars, &partial, t, lo, hi] {
          partial[t] = Msm(bases.data() + lo, scalars.data() + lo, hi - lo);
        });
      }
    }
    G1 acc = G1::Identity();
    for (const G1& p : partial) {
      acc += p;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["size"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_MsmMt)->DenseRange(12, 16, 2)->Unit(benchmark::kMillisecond);

void BM_FftMt(benchmark::State& state) {
  // `threads` independent size-2^k FFTs in flight at once — the sharded
  // prover's workload, where every shard transforms its own columns
  // concurrently. Perfect scaling keeps the batch time equal to one BM_Fft
  // at the same size; the recorded seconds cover the whole batch.
  const int k = static_cast<int>(state.range(0));
  const size_t threads = MtThreads();
  ThreadPool pool(threads);
  EvaluationDomain dom(k);
  const std::vector<std::vector<Fr>> coeffs = RandomColumns(3, threads, dom.size());
  for (auto _ : state) {
    TaskGroup group(pool);
    for (size_t t = 0; t < threads; ++t) {
      group.Submit([&dom, &coeffs, t] {
        auto evals = dom.FftFromCoeffs(coeffs[t]);
        benchmark::DoNotOptimize(evals);
      });
    }
    group.Wait();
  }
  state.counters["size"] = static_cast<double>(dom.size());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_FftMt)->DenseRange(10, 14, 2)->Unit(benchmark::kMillisecond);

// Proves `batch` inferences of a zoo model under plan {shards, batch} once per
// iteration; the size counter is the compiled plan's shards times its batch.
// Returns the last proof's seconds, or 0 after skipping the run.
double ProveEachIteration(benchmark::State& state, const char* zoo_name, size_t shards,
                          size_t batch) {
  const Model model = MakeZooModel(zoo_name);
  StatusOr<CompiledPlan> compiled = CompilePlan(model, {shards, batch});
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return 0;
  }
  std::vector<Tensor<int64_t>> inputs_q;
  for (size_t i = 0; i < batch; ++i) {
    inputs_q.push_back(QuantizeTensor(SyntheticInput(model, 7 + i), model.quant));
  }
  double seconds = 0;
  for (auto _ : state) {
    StatusOr<PlanProof> proof = ProvePlan(*compiled, inputs_q);
    if (!proof.ok()) {
      state.SkipWithError(proof.status().ToString().c_str());
      return 0;
    }
    seconds = proof->prove_seconds;
    benchmark::DoNotOptimize(proof->artifact.proofs.size());
  }
  state.counters["size"] = static_cast<double>(compiled->plan.shards * compiled->plan.batch);
  state.counters["threads"] = static_cast<double>(ThreadPool::Global().num_threads());
  return seconds;
}

// --- End-to-end sharded proving (graph partition + parallel shard proofs) --
//
// One full prove of a zoo model at 1/2/4/8 requested shards (clamped to what
// the graph admits; the size counter records the actual count). At 1 shard
// this is the single-circuit baseline the CI perf-smoke speedup gate divides
// by. Proving uses the global pool, so shard concurrency is bounded by the
// schedulable CPUs — on a 1-CPU runner the sharded series measures overhead,
// not speedup (see DESIGN.md §13).
void BM_ProveModel(benchmark::State& state, const char* zoo_name) {
  ProveEachIteration(state, zoo_name, static_cast<size_t>(state.range(0)), 1);
}
BENCHMARK_CAPTURE(BM_ProveModel, mnist, "mnist")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProveModel, vgg16, "vgg16")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Batched multi-inference proving (one circuit, N inferences) -----------
//
// One full prove of N inferences laid out in a single circuit, at N=1/2/4/8.
// The size counter records N, so cost-per-inference is seconds/size — the
// economics batching exists for (fixed columns, tables, and the permutation
// argument are paid once, so per-inference cost falls below 1x as N grows).
// At N=1 this is byte-identical to the single-circuit prove, making the N=1
// record the baseline the CI perf-smoke per-inference gate divides by.
void BM_ProveBatched(benchmark::State& state, const char* zoo_name) {
  const size_t batch = static_cast<size_t>(state.range(0));
  state.counters["s_per_inf"] =
      ProveEachIteration(state, zoo_name, 1, batch) / static_cast<double>(batch);
}
BENCHMARK_CAPTURE(BM_ProveBatched, mnist, "mnist")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Cross-proof RLC batch verification ------------------------------------
//
// K independent proofs of the same model verified together: every KZG
// opening claim of every proof folds into ONE MSM (KzgAccumulator with
// per-proof tags). Pippenger's cost per point falls as the MSM grows, so the
// per-proof verify time at K=8 must be below K=1's (the CI cross-proof verify
// cost gate). Proof generation happens outside the timing loop; each
// iteration is verification only.
void BM_VerifyProofsBatched(benchmark::State& state, const char* zoo_name) {
  const size_t count = static_cast<size_t>(state.range(0));
  const Model model = MakeZooModel(zoo_name);
  const CompiledModel compiled = CompileModel(model);
  std::vector<ZkmlProof> proofs;
  for (size_t i = 0; i < count; ++i) {
    const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 7 + i), model.quant);
    StatusOr<ZkmlProof> proof = ProveCancellable(compiled, input, nullptr);
    if (!proof.ok()) {
      state.SkipWithError(proof.status().ToString().c_str());
      return;
    }
    proofs.push_back(std::move(proof).value());
  }
  std::vector<CrossProofClaim> claims(count);
  for (size_t i = 0; i < count; ++i) {
    claims[i] = {&compiled.pk.vk, compiled.pcs.get(), &proofs[i].instance, &proofs[i].bytes};
  }
  for (auto _ : state) {
    const CrossProofVerdict verdict = VerifyProofsBatched(claims);
    if (!verdict.ok()) {
      state.SkipWithError(verdict.status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(verdict.stage);
  }
  state.counters["size"] = static_cast<double>(count);
  state.counters["proofs_per_s"] =
      benchmark::Counter(static_cast<double>(count), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK_CAPTURE(BM_VerifyProofsBatched, mnist, "mnist")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Console output plus a flat record per run for the JSON dump.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Record {
    std::string op;
    uint64_t size = 1;
    double seconds = 0;  // wall time per iteration
    size_t threads = 0;  // 0 = the binary-wide default (global pool size)
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) {
        continue;
      }
      // Under --benchmark_repetitions, keep one record per benchmark: the
      // mean aggregate (stddev/median/cv rows are not timings of the op).
      if (run.run_type == Run::RT_Aggregate && run.aggregate_name != "mean") {
        continue;
      }
      Record rec;
      // "BM_Fft/12" -> "BM_Fft"; "BM_ProveModel/vgg16/4" -> "BM_ProveModel/vgg16";
      // "BM_CommitRound/9/1" -> "BM_CommitRound/1". The first numeric path
      // segment is the range arg the size counter carries, so it is dropped;
      // later numeric segments are further args that size does not carry
      // and stay, so no two records share (op, size). Non-numeric segments
      // are capture labels and stay too. Aggregate runs suffix
      // "_<aggregate>" onto the last segment.
      std::string name = run.benchmark_name();
      if (run.run_type == Run::RT_Aggregate) {
        const std::string suffix = "_" + run.aggregate_name;
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
          name.resize(name.size() - suffix.size());
        }
      }
      bool dropped_size_arg = false;
      for (size_t start = 0; start <= name.size();) {
        const size_t slash = name.find('/', start);
        const size_t seg_end = slash == std::string::npos ? name.size() : slash;
        const std::string seg = name.substr(start, seg_end - start);
        const bool numeric =
            !seg.empty() && seg.find_first_not_of("0123456789") == std::string::npos;
        if (numeric && !dropped_size_arg) {
          dropped_size_arg = true;
        } else {
          if (!rec.op.empty()) {
            rec.op += '/';
          }
          rec.op += seg;
        }
        if (slash == std::string::npos) {
          break;
        }
        start = slash + 1;
      }
      auto it = run.counters.find("size");
      if (it != run.counters.end()) {
        rec.size = static_cast<uint64_t>(it->second.value);
      }
      // MT series override the binary-wide thread stamp with their own pool
      // size; everything else inherits the default at WriteJson time.
      if (auto t = run.counters.find("threads"); t != run.counters.end()) {
        rec.threads = static_cast<size_t>(t->second.value);
      }
      rec.seconds = run.real_accumulated_time / static_cast<double>(run.iterations);
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  // The dump carries the host it was measured on (WriteBenchJson, bench_util.h).
  bool WriteJson(const char* path, size_t threads) const {
    std::vector<std::string> lines;
    for (const Record& r : records_) {
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"op\": \"%s\", \"size\": %llu, \"seconds\": %.9g, \"threads\": %zu}",
                    r.op.c_str(), static_cast<unsigned long long>(r.size), r.seconds,
                    r.threads != 0 ? r.threads : threads);
      lines.push_back(buf);
    }
    return WriteBenchJson(path, "", "results", lines);
  }

 private:
  std::vector<Record> records_;
};

}  // namespace
}  // namespace zkml

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  zkml::JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson("BENCH_primitives.json", zkml::ThreadPool::Global().num_threads());
  benchmark::Shutdown();
  return 0;
}
