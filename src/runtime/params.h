// String-keyed kernel/pipeline configuration.
//
// Params is the small, ordered key=value bag that flows from CLIs, benches
// and pipeline presets into the kernel registry.  Values are stored as
// strings; typed accessors parse on read so a Params can be built from a
// command line ("n=1024,inst=4,folded=0") as easily as from code.
#ifndef PUSCHPOOL_RUNTIME_PARAMS_H
#define PUSCHPOOL_RUNTIME_PARAMS_H

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pp::runtime {

class Params {
 public:
  Params() = default;

  // A template keeps plain integer literals unambiguous (`set("n", 256)`):
  // deduction beats the bool/string overloads' conversions.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Params& set(std::string_view key, T v) {
    return put(key, std::to_string(v));
  }
  Params& set(std::string_view key, bool v) {
    return put(key, v ? "1" : "0");
  }
  Params& set(std::string_view key, std::string v) {
    return put(key, std::move(v));
  }
  // Keeps string literals off the bool overload.
  Params& set(std::string_view key, const char* v) {
    return put(key, std::string(v));
  }

  // Removes a key if present (e.g. to strip stage-scheduling keys before
  // handing the rest to a kernel factory).
  Params& unset(std::string_view key) {
    for (size_t i = 0; i < kv_.size(); ++i) {
      if (kv_[i].first == key) {
        kv_.erase(kv_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    return *this;
  }

  // Keys in insertion order (for registry-side validation).
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(kv_.size());
    for (const auto& [k, v] : kv_) out.push_back(k);
    return out;
  }

  bool has(std::string_view key) const { return find(key) != nullptr; }

  // Numeric/boolean reads are strict: a malformed value ("n=1o24") prints
  // a message and exits 2, like a malformed command-line flag, rather than
  // silently parsing to a different number.
  int64_t geti(std::string_view key, int64_t fallback) const {
    const std::string* v = find(key);
    if (!v) return fallback;
    char* end = nullptr;
    const long long r = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0') bad_value(key, *v, "an integer");
    return r;
  }
  uint32_t getu(std::string_view key, uint32_t fallback) const {
    const int64_t r = geti(key, fallback);
    if (r < 0 || r > INT64_C(0xffffffff)) {
      bad_value(key, *find(key), "a 32-bit unsigned integer");
    }
    return static_cast<uint32_t>(r);
  }
  bool getb(std::string_view key, bool fallback) const {
    const std::string* v = find(key);
    if (!v) return fallback;
    if (*v == "1" || *v == "true") return true;
    if (*v == "0" || *v == "false") return false;
    bad_value(key, *v, "a boolean (0/1/true/false)");
  }
  std::string gets(std::string_view key, std::string fallback) const {
    const std::string* v = find(key);
    return v ? *v : fallback;
  }

  // "k1=v1 k2=v2 ..." in insertion order; used for report labels.
  std::string describe() const {
    std::string out;
    for (const auto& [k, v] : kv_) {
      if (!out.empty()) out += ' ';
      out += k + "=" + v;
    }
    return out;
  }

  // Parses "k1=v1,k2=v2"; bare keys become flags ("folded" == "folded=1").
  static Params parse(std::string_view spec) {
    Params p;
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t end = spec.find(',', pos);
      if (end == std::string_view::npos) end = spec.size();
      const std::string_view item = spec.substr(pos, end - pos);
      const size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        if (!item.empty()) p.put(item, "1");
      } else {
        p.put(item.substr(0, eq), std::string(item.substr(eq + 1)));
      }
      pos = end + 1;
    }
    return p;
  }

 private:
  [[noreturn]] static void bad_value(std::string_view key,
                                     const std::string& value,
                                     const char* want) {
    std::fprintf(stderr, "parameter '%.*s=%s' is not %s\n",
                 static_cast<int>(key.size()), key.data(), value.c_str(),
                 want);
    std::exit(2);
  }

  Params& put(std::string_view key, std::string v) {
    for (auto& [k, old] : kv_) {
      if (k == key) {
        old = std::move(v);
        return *this;
      }
    }
    kv_.emplace_back(std::string(key), std::move(v));
    return *this;
  }

  const std::string* find(std::string_view key) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, std::string>> kv_;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_PARAMS_H
