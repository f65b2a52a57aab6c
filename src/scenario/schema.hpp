// Schema visitors: load, dump and list a JSON document from one describe()
// per schema object, found by argument-dependent lookup. For example:
//
//   template <class V>
//   void describe(V& v, net::GridConfig& g) {
//     v.field("rows", g.rows);                                 // by member type
//     v.field("handedness", g.handedness, kHandednessTokens);  // or by format
//     v.check(g.rows >= 1, g.rows, "must be >= 1");            // key by member
//   }
//
// load() rejects unknown keys before reading any value, overlays the keys
// present onto the target and runs the checks in order, throwing
// ScenarioIoError "<dotted.path>: <problem>" (path text is built only then).
// check_all() runs the same checks on a target as it stands, without a
// document, and never writes to it.
// dump() writes every member in describe() order. list_paths() emits an
// object's own key paths, then its children's. Code for some visitors only
// (cross-element rules, retired keys that are never dumped) sits under
// `if constexpr` on V::kLoads or V::kDumps.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/scenario/scenario_io.hpp"
#include "src/util/json.hpp"

namespace abp::scenario::schema {

// A field path as a chain of stack frames: key `key` under `parent`, or
// element `index` of the array `parent`.
struct Path {
  static constexpr std::size_t kKey = static_cast<std::size_t>(-1);
  const Path* parent = nullptr;
  std::string_view key;
  std::size_t index = kKey;

  [[nodiscard]] std::string str() const {
    std::string s = parent != nullptr ? parent->str() : std::string();
    if (index != kKey) return s + "[" + std::to_string(index) + "]";
    return (s.empty() ? s : s + ".").append(key);
  }
};

[[noreturn]] inline void fail(const Path& p, const std::string& problem) {
  throw ScenarioIoError(p.str(), problem);
}

[[noreturn]] inline void wrong_type(const Path& p, const char* expected,
                                    const json::Value& v) {
  fail(p, std::string("expected ") + expected + ", got " + v.type_name());
}

// A command-line value: JSON text, or a bare string when it is not JSON.
inline json::Value parse_cli_value(std::string_view text) {
  try {
    return json::parse(text);
  } catch (const json::ParseError&) {
    return json::Value::string(std::string(text));
  }
}

// --- Field formats ------------------------------------------------------------
// read_value / write_value overloads, chosen by member type plus an optional
// format argument: a token table for enums, kInfTime for times.

inline void read_value(const json::Value& v, const Path& p, double& x) {
  if (!v.is_number()) wrong_type(p, "a number", v);
  try {
    x = v.as_double();
  } catch (const std::out_of_range&) {
    fail(p, "number out of double range");
  }
}

inline void read_value(const json::Value& v, const Path& p, int& x) {
  if (!v.is_number()) wrong_type(p, "a number", v);
  if (!v.is_integer_token()) fail(p, "must be an integer");
  std::int64_t n = 0;
  try {
    n = v.as_int64();
  } catch (const std::out_of_range&) {
    fail(p, "integer out of range");
  }
  if (n < std::numeric_limits<int>::min() || n > std::numeric_limits<int>::max()) {
    fail(p, "integer out of range");
  }
  x = static_cast<int>(n);
}

inline void read_value(const json::Value& v, const Path& p, std::uint64_t& x) {
  if (!v.is_number()) wrong_type(p, "a number", v);
  if (!v.is_integer_token() || v.number_token()[0] == '-') {
    fail(p, "must be a non-negative integer");
  }
  try {
    x = v.as_uint64();
  } catch (const std::out_of_range&) {
    fail(p, "must fit in 64 bits");
  }
}

inline void read_value(const json::Value& v, const Path& p, bool& x) {
  if (!v.is_bool()) wrong_type(p, "a boolean", v);
  x = v.as_bool();
}

inline void read_value(const json::Value& v, const Path& p, std::string& x) {
  if (!v.is_string()) wrong_type(p, "a string", v);
  x = v.as_string();
}

template <class E, std::size_t N>
void read_value(const json::Value& v, const Path& p, E& x, const Token<E> (&tokens)[N]) {
  if (!v.is_string()) wrong_type(p, "a string", v);
  const E* e = find_token(v.as_string(), tokens);
  if (e == nullptr) fail(p, expected_tokens(tokens));
  x = *e;
}

// A time that may be infinite: a number, or the string "inf".
struct InfTime {};
inline constexpr InfTime kInfTime{};

inline void read_value(const json::Value& v, const Path& p, double& x, InfTime) {
  if (!v.is_string()) return read_value(v, p, x);
  if (v.as_string() != "inf") fail(p, "expected a number or \"inf\"");
  x = std::numeric_limits<double>::infinity();
}

template <class T>
json::Value write_value(const Path&, const T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    return json::Value::boolean(x);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return json::Value::string(x);
  } else {
    return json::Value::number(x);
  }
}

template <class E, std::size_t N>
json::Value write_value(const Path&, E x, const Token<E> (&tokens)[N]) {
  for (const Token<E>& t : tokens) {
    if (t.value == x) return json::Value::string(t.token);
  }
  return json::Value::string(tokens[0].token);
}

inline json::Value write_value(const Path&, double x, InfTime) {
  return std::isinf(x) ? json::Value::string("inf") : json::Value::number(x);
}

// How list_paths shows an object member; load and dump ignore it.
enum class List {
  All,          // the key, then the object's own keys
  KeyOnly,      // the key only: its shape is listed under another path
  MembersOnly,  // the object's keys only: the key is one of a documented family
};

// Base of the visitors that do not load: checks and required keys mean
// something to the loader only.
struct NoChecks {
  static constexpr bool kLoads = false;
  static constexpr bool kDumps = false;

  template <class M>
  void check(bool, const M&, std::string_view) const {}
  void check(bool, std::string_view) const {}
  template <class M>
  void require(const M&) const {}
};

// --- Load -----------------------------------------------------------------------

template <class T>
void load(const json::Value& v, const Path& p, T& x);
template <class T>
void check_all(T& x, const Path& p);

// Reads the object `obj` into the target, or with no document (null `obj`)
// only runs the target's checks, recursing into every object and element.
class Loader {
 public:
  static constexpr bool kLoads = true;
  static constexpr bool kDumps = false;

  Loader(const json::Value* obj, const Path& path) : obj_(obj), path_(path) {}

  template <class T, class... Format>
  void field(std::string_view key, T& x, const Format&... format) {
    note(x, key);
    if (const json::Value* f = find(key)) read_value(*f, at(key), x, format...);
  }
  template <class T>
  void object(std::string_view key, T& x, List = List::All) {
    note(x, key);
    if (obj_ == nullptr) return check_all(x, at(key));
    if (const json::Value* f = find(key)) load(*f, at(key), x);
  }
  template <class T>
  void array(std::string_view key, std::vector<T>& xs, const T& proto = T{}) {
    note(xs, key);
    const Path p = at(key);
    if (obj_ == nullptr) {
      for (std::size_t i = 0; i < xs.size(); ++i) check_all(xs[i], Path{&p, {}, i});
      return;
    }
    const json::Value* f = find(key);
    if (f == nullptr) return;
    if (!f->is_array()) wrong_type(p, "an array", *f);
    xs.assign(f->items().size(), proto);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      load(f->items()[i], Path{&p, {}, i}, xs[i]);
    }
  }
  // `member` is one this describe() has named (a field, object or array).
  template <class M>
  void check(bool ok, const M& member, std::string_view problem) const {
    if (!ok) fail(at(key_of(member)), std::string(problem));
  }
  // A problem with the object as a whole.
  void check(bool ok, std::string_view problem) const {
    if (!ok) fail(path_, std::string(problem));
  }
  // Whether the document names `member`; never true without a document.
  template <class M>
  [[nodiscard]] bool has(const M& member) const {
    return find(key_of(member)) != nullptr;
  }
  template <class M>
  void require(const M& member) const {
    if (obj_ != nullptr) check(has(member), member, "required field is missing");
  }
  // Path text of element `index` of the array `member`.
  template <class T>
  [[nodiscard]] std::string element_path(const std::vector<T>& member,
                                         std::size_t index) const {
    const Path p = at(key_of(member));
    return Path{&p, {}, index}.str();
  }

 private:
  static constexpr int kMaxKeys = 24;  // the widest schema object has 18

  // The members named so far, for checks to find their keys.
  struct Named {
    const void* member;
    const char* key;
    std::size_t size;
  };

  template <class M>
  void note(const M& member, std::string_view key) {
    if (count_ < kMaxKeys) named_[count_++] = {&member, key.data(), key.size()};
  }
  template <class M>
  [[nodiscard]] std::string_view key_of(const M& member) const {
    for (int i = 0; i < count_; ++i) {
      if (named_[i].member == &member) return {named_[i].key, named_[i].size};
    }
    return {};
  }
  [[nodiscard]] Path at(std::string_view key) const { return Path{&path_, key}; }
  [[nodiscard]] const json::Value* find(std::string_view key) const {
    return obj_ != nullptr ? obj_->find(key) : nullptr;
  }

  const json::Value* obj_;
  const Path& path_;
  Named named_[kMaxKeys] = {};
  int count_ = 0;
};

// Walks one object's own keys, not its children's, calling f(key, list).
template <class F>
class KeyWalk : public NoChecks {
 public:
  explicit KeyWalk(F f) : f_(std::move(f)) {}

  template <class T, class... Format>
  void field(std::string_view key, T&, const Format&...) { f_(key, List::All); }
  template <class T>
  void object(std::string_view key, T&, List list = List::All) { f_(key, list); }
  template <class T>
  void array(std::string_view key, std::vector<T>&, const T& = T{}) {
    f_(key, List::All);
  }

 private:
  F f_;
};

// Reads the JSON object `v` into `x`, unknown keys first, in document order.
// No schema object has 64 keys, so when `v` has more members one of its
// first 64 is unknown: a 64-bit mask of known members suffices.
template <class T>
void load(const json::Value& v, const Path& p, T& x) {
  if (!v.is_object()) wrong_type(p, "an object", v);
  const std::vector<json::Member>& members = v.members();
  const std::size_t n = members.size() < 64 ? members.size() : 64;
  std::uint64_t known = 0;
  KeyWalk walk([&](std::string_view key, List) {
    for (std::size_t i = 0; i < n; ++i) {
      if (members[i].first == key) {
        known |= std::uint64_t{1} << i;
        return;
      }
    }
  });
  describe(walk, x);
  for (std::size_t i = 0; i < n; ++i) {
    if ((known >> i & 1) == 0) fail(Path{&p, members[i].first}, "unknown key");
  }
  Loader loader(&v, p);
  describe(loader, x);
}

template <class T>
void check_all(T& x, const Path& p) {
  Loader loader(nullptr, p);
  describe(loader, x);
}

// Loads a whole document into `x`, which holds the defaults.
template <class T>
void load_document(const json::Value& doc, T& x) {
  if (!doc.is_object()) wrong_type(Path{nullptr, "$"}, "an object", doc);
  load(doc, Path{}, x);
}

// --- Dump -----------------------------------------------------------------------

template <class T>
json::Value dump(T& x, const Path& p);

class Dumper : public NoChecks {
 public:
  static constexpr bool kDumps = true;

  Dumper(json::Value& obj, const Path& path) : obj_(obj), path_(path) {}

  template <class T, class... Format>
  void field(std::string_view key, T& x, const Format&... format) {
    obj_.set(std::string(key), write_value(Path{&path_, key}, x, format...));
  }
  template <class T>
  void object(std::string_view key, T& x, List = List::All) {
    obj_.set(std::string(key), dump(x, Path{&path_, key}));
  }
  template <class T>
  void array(std::string_view key, std::vector<T>& xs, const T& = T{}) {
    const Path p{&path_, key};
    json::Value a = json::Value::array();
    for (std::size_t i = 0; i < xs.size(); ++i) a.push_back(dump(xs[i], Path{&p, {}, i}));
    obj_.set(std::string(key), std::move(a));
  }

 private:
  json::Value& obj_;
  const Path& path_;
};

template <class T>
json::Value dump(T& x, const Path& p) {
  json::Value v = json::Value::object();
  Dumper dumper(v, p);
  describe(dumper, x);
  return v;
}

// Canonical text of `x`. describe() takes its target by non-const reference
// for every visitor; the dumper only reads through it.
template <class T>
std::string dump_document(const T& x) {
  return json::dump(dump(const_cast<T&>(x), Path{}));
}

// --- List paths -----------------------------------------------------------------

template <class T>
void list_paths(T& x, const std::string& prefix, std::vector<std::string>& out);

// Recurses into one object's children: the second half of list_paths.
class ChildWalk : public NoChecks {
 public:
  ChildWalk(const std::string& prefix, std::vector<std::string>& out)
      : prefix_(prefix), out_(out) {}

  template <class T, class... Format>
  void field(std::string_view, T&, const Format&...) {}
  template <class T>
  void object(std::string_view key, T& x, List list = List::All) {
    if (list != List::KeyOnly) list_paths(x, join(prefix_, key), out_);
  }
  template <class T>
  void array(std::string_view key, std::vector<T>&, const T& proto = T{}) {
    T x = proto;
    list_paths(x, join(prefix_, key) + "[]", out_);
  }

  static std::string join(const std::string& prefix, std::string_view key) {
    return prefix.empty() ? std::string(key) : prefix + "." + std::string(key);
  }

 private:
  const std::string& prefix_;
  std::vector<std::string>& out_;
};

template <class T>
void list_paths(T& x, const std::string& prefix, std::vector<std::string>& out) {
  KeyWalk keys([&](std::string_view key, List list) {
    if (list != List::MembersOnly) out.push_back(ChildWalk::join(prefix, key));
  });
  describe(keys, x);
  ChildWalk children(prefix, out);
  describe(children, x);
}

}  // namespace abp::scenario::schema
