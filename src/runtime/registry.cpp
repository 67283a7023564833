#include "runtime/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace pp::runtime {

void Kernel::bind_scalar(std::string_view port, double) {
  unknown_port(port);
}

double Kernel::fetch_scalar(std::string_view port) const {
  unknown_port(port);
}

void Kernel::unknown_port(std::string_view port) const {
  std::fprintf(stderr, "kernel '%s' has no port '%.*s'\n", desc_.name.c_str(),
               static_cast<int>(port.size()), port.data());
  std::abort();
}

void register_builtin_kernels(Registry& r);  // adapters.cpp

Registry& Registry::instance() {
  static Registry* reg = [] {
    auto* r = new Registry();
    register_builtin_kernels(*r);
    return r;
  }();
  return *reg;
}

void Registry::add(std::string name, std::string summary,
                   std::vector<std::string> keys, Kernel_factory factory) {
  PP_CHECK(!contains(name), "duplicate kernel registration");
  entries_.push_back(
      {std::move(name), std::move(summary), std::move(keys), std::move(factory)});
}

bool Registry::contains(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

std::unique_ptr<Kernel> Registry::make(const std::string& name,
                                       sim::Machine& m, arch::L1_alloc& alloc,
                                       const Params& p) const {
  for (const auto& e : entries_) {
    if (e.name != name) continue;
    for (const auto& key : p.keys()) {
      if (std::find(e.keys.begin(), e.keys.end(), key) != e.keys.end()) {
        continue;
      }
      std::fprintf(stderr,
                   "kernel '%s' does not accept parameter '%s'; accepted:",
                   name.c_str(), key.c_str());
      for (const auto& k : e.keys) std::fprintf(stderr, " %s", k.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    return e.factory(m, alloc, p);
  }
  std::fprintf(stderr, "no kernel '%s' in the registry; known kernels:\n",
               name.c_str());
  for (const auto& e : entries_) {
    std::fprintf(stderr, "  %-16s %s\n", e.name.c_str(), e.summary.c_str());
  }
  std::abort();
}

std::vector<std::pair<std::string, std::string>> Registry::list() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.emplace_back(e.name, e.summary);
  return out;
}

std::unique_ptr<Kernel> make_kernel(const std::string& name, sim::Machine& m,
                                    arch::L1_alloc& alloc, const Params& p) {
  return Registry::instance().make(name, m, alloc, p);
}

}  // namespace pp::runtime
