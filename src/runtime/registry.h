// String-keyed kernel registry.
//
// Every kernel configuration the repo knows how to run is reachable by name:
//
//   sim::Machine m(cluster);
//   arch::L1_alloc alloc(m.config());
//   auto k = runtime::make_kernel("fft.parallel", m, alloc,
//                                 runtime::Params().set("n", 256).set("inst", 4));
//   common::Rng rng(1);
//   k->bind_default_inputs(rng);
//   auto report = k->launch();
//
// Builtin kernels (registered on first use):
//   fft.serial      n, reps
//   fft.parallel    n, inst (0/absent = fill cluster), reps, folded
//   mmm             m, k, p, wr, wc, mode=parallel|serial, cores (0 = all)
//   chol.batch      n, per_core, cores (0 = all)
//   chol.pair       n, pairs (0 = fill cluster), mirrored
//   chol.serial     n, reps
//   trisolve.batch  n, per_core, cores (0 = all)
//   gram.batch      sc, b, l, cores (0 = all)
//   che             sc, b, l, cores (0 = all)
//   ne              sc, b, l, cores (0 = all)
#ifndef PUSCHPOOL_RUNTIME_REGISTRY_H
#define PUSCHPOOL_RUNTIME_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "runtime/kernel.h"
#include "sim/machine.h"

namespace pp::runtime {

using Kernel_factory = std::function<std::unique_ptr<Kernel>(
    sim::Machine&, arch::L1_alloc&, const Params&)>;

class Registry {
 public:
  // The process-wide registry, with builtin kernels already registered.
  static Registry& instance();

  // `keys` lists every parameter the kernel accepts; make() prints them and
  // exits 2 on any Params key outside it, so CLI typos fail loudly instead
  // of silently measuring a default configuration.
  void add(std::string name, std::string summary,
           std::vector<std::string> keys, Kernel_factory factory);

  bool contains(const std::string& name) const;

  std::unique_ptr<Kernel> make(const std::string& name, sim::Machine& m,
                               arch::L1_alloc& alloc, const Params& p) const;

  // (name, summary) pairs in registration order.
  std::vector<std::pair<std::string, std::string>> list() const;

 private:
  struct Entry {
    std::string name;
    std::string summary;
    std::vector<std::string> keys;
    Kernel_factory factory;
  };
  std::vector<Entry> entries_;
};

// Convenience wrapper over Registry::instance().make().
std::unique_ptr<Kernel> make_kernel(const std::string& name, sim::Machine& m,
                                    arch::L1_alloc& alloc,
                                    const Params& p = {});

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_REGISTRY_H
