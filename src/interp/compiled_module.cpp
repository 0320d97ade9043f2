#include "interp/compiled_module.hpp"

#include "wasm/validator.hpp"

namespace acctee::interp {

CompiledModule::CompiledModule(wasm::Module module, CompileOptions options)
    : module_(std::move(module)) {
  if (options.validate) {
    wasm::validate(module_);
    validated_ = true;
  }
  flat_ = flatten_module(module_);
  lower(options.lower);
}

CompiledModule::CompiledModule(wasm::Module module, std::vector<FlatFunc> flat,
                               CompileOptions options, bool validated)
    : module_(std::move(module)),
      flat_(std::move(flat)),
      validated_(validated),
      optimised_(true) {
  lower(options.lower);
}

CompiledModule::CompiledModule(wasm::Module module,
                               std::vector<FlatFunc> optimised_flat,
                               std::vector<FlatFunc> baseline_flat,
                               CompileOptions options, bool validated)
    : CompiledModule(std::move(module), std::move(optimised_flat), options,
                     validated) {
  baseline_flat_ = std::move(baseline_flat);
}

void CompiledModule::lower(const LowerOptions& options) {
  lower_options_ = options;
  lowered_ = lower_module(module_, flat_, options);
  lowering_digest_ = interp::lowering_digest(flat_, lowered_, options);
}

CompiledModulePtr compile(wasm::Module module,
                          CompiledModule::CompileOptions options) {
  return std::make_shared<const CompiledModule>(std::move(module), options);
}

}  // namespace acctee::interp
