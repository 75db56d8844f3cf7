#include "select_policy.hh"

#include "vsim/base/logging.hh"

namespace vsim::core
{

namespace
{

/** Paper §3.5: type, then non-speculative preferred, then age. */
class TypedSpecLastPolicy final : public SelectionPolicy
{
  public:
    const char *name() const override { return "typed-spec-last"; }
    SelectKey
    key(bool typed_first, bool speculative) const override
    {
        return {!typed_first, speculative};
    }
};

/** Branches/loads first, then oldest; speculative state ignored. */
class TypedOnlyPolicy final : public SelectionPolicy
{
  public:
    const char *name() const override { return "typed-only"; }
    SelectKey
    key(bool typed_first, bool) const override
    {
        return {!typed_first, false};
    }
};

/** Pure dynamic program order. */
class OldestFirstPolicy final : public SelectionPolicy
{
  public:
    const char *name() const override { return "oldest-first"; }
    SelectKey key(bool, bool) const override { return {false, false}; }
};

/** Aggressive speculation-first scheduling. */
class TypedSpecFirstPolicy final : public SelectionPolicy
{
  public:
    const char *name() const override { return "typed-spec-first"; }
    SelectKey
    key(bool typed_first, bool speculative) const override
    {
        return {!typed_first, !speculative};
    }
};

} // namespace

std::unique_ptr<SelectionPolicy>
makeSelectionPolicy(SelectPolicy policy)
{
    switch (policy) {
      case SelectPolicy::TypedSpecLast:
        return std::make_unique<TypedSpecLastPolicy>();
      case SelectPolicy::TypedOnly:
        return std::make_unique<TypedOnlyPolicy>();
      case SelectPolicy::OldestFirst:
        return std::make_unique<OldestFirstPolicy>();
      case SelectPolicy::TypedSpecFirst:
        return std::make_unique<TypedSpecFirstPolicy>();
    }
    VSIM_PANIC("unhandled selection policy");
}

} // namespace vsim::core
