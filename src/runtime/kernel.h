// Uniform kernel lifecycle for the runtime layer.
//
// Every simulated kernel - whatever its concrete class - is driven through
// the same four steps:
//
//   make_kernel(...)        instantiate from the registry by name
//   bind(port, slot, data)  stage quantized inputs into L1
//   launch()                run to completion -> sim::Kernel_report
//   fetch(port, slot)       read outputs back out of L1
//
// Ports are named; multi-instance kernels (an FFT gang's reps, a Cholesky
// batch's matrices) expose one slot per instance.  Adapters over the
// concrete kernel classes live in adapters.cpp and are reached through the
// registry (registry.h), so callers never name a kernel class directly.
// Whole-slot execution composes kernels through Pipeline (pipeline.h) on a
// pluggable Backend (backend.h).
#ifndef PUSCHPOOL_RUNTIME_KERNEL_H
#define PUSCHPOOL_RUNTIME_KERNEL_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/complex16.h"
#include "common/rng.h"
#include "runtime/params.h"
#include "sim/stats.h"

namespace pp::runtime {

// Identity + configuration of an instantiated kernel.
struct Kernel_desc {
  std::string name;    // registry key, e.g. "fft.parallel"
  Params params;       // resolved configuration (defaults filled in)
  uint32_t cores = 0;  // gang shape: cores participating in launch()
  uint64_t macs = 0;   // complex MACs the problem needs (0 = not meaningful)

  std::string label() const {
    const std::string p = params.describe();
    return p.empty() ? name : name + " " + p;
  }
};

class Kernel {
 public:
  virtual ~Kernel() = default;

  const Kernel_desc& desc() const { return desc_; }

  // Stages quantized data into the port's slot (writes L1 via the host).
  virtual void bind(std::string_view port, uint32_t slot,
                    std::span<const common::cq15> data) = 0;

  // Scalar ports (e.g. the Gramian's "sigma2" regularizer), in real units.
  virtual void bind_scalar(std::string_view port, double value);

  // Fills every input port with valid synthetic stimulus (SPD matrices for
  // Cholesky, unit-amplitude pilots for CHE, ...).  This is what benches and
  // the analytic roll-up use; cycle counts do not depend on data values.
  virtual void bind_default_inputs(common::Rng& rng) = 0;

  // Executes the kernel region on the simulated cluster to completion.
  virtual sim::Kernel_report launch() = 0;

  // Reads a vector output back from L1.
  virtual std::vector<common::cq15> fetch(std::string_view port,
                                          uint32_t slot = 0) const = 0;

  // Scalar outputs (e.g. the NE kernel's "sigma2" estimate).
  virtual double fetch_scalar(std::string_view port) const;

 protected:
  explicit Kernel(Kernel_desc desc) : desc_(std::move(desc)) {}

  [[noreturn]] void unknown_port(std::string_view port) const;

  Kernel_desc desc_;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_KERNEL_H
