#include "interp/compiled_module.hpp"

#include "wasm/validator.hpp"

namespace acctee::interp {

CompiledModule::CompiledModule(wasm::Module module, CompileOptions options)
    : module_(std::move(module)) {
  if (options.validate) {
    wasm::validate(module_);
    validated_ = true;
  }
  flat_.reserve(module_.functions.size());
  for (const auto& func : module_.functions) {
    flat_.push_back(flatten(module_, func));
  }
  lower_options_ = options.lower;
  lowered_ = lower_module(module_, flat_, options.lower);
  lowering_digest_ = interp::lowering_digest(flat_, lowered_, options.lower);
}

CompiledModule::CompiledModule(wasm::Module module,
                               std::vector<FlatFunc> optimised_flat,
                               std::vector<FlatFunc> baseline_flat,
                               CompileOptions options, bool validated)
    : module_(std::move(module)),
      flat_(std::move(optimised_flat)),
      baseline_flat_(std::move(baseline_flat)),
      validated_(validated),
      optimised_(true) {
  lower_options_ = options.lower;
  lowered_ = lower_module(module_, flat_, options.lower);
  lowering_digest_ = interp::lowering_digest(flat_, lowered_, options.lower);
}

CompiledModulePtr compile(wasm::Module module,
                          CompiledModule::CompileOptions options) {
  return std::make_shared<const CompiledModule>(std::move(module), options);
}

}  // namespace acctee::interp
