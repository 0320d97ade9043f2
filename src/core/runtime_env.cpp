#include "core/runtime_env.hpp"

#include <algorithm>

#include "interp/cost.hpp"
#include "interp/shadow_meter.hpp"

namespace acctee::core {

using interp::HostContext;
using interp::TypedValue;
using interp::Values;
using wasm::FuncType;
using wasm::ValType;

FuncType io_read_type() { return FuncType{{ValType::I32, ValType::I32}, {ValType::I32}}; }
FuncType io_write_type() { return FuncType{{ValType::I32, ValType::I32}, {ValType::I32}}; }
FuncType input_size_type() { return FuncType{{}, {ValType::I32}}; }
FuncType debug_i64_type() { return FuncType{{ValType::I64}, {}}; }

interp::ImportMap make_runtime_env(IoChannel* channel,
                                   std::vector<int64_t>* debug_sink) {
  interp::ImportMap imports;

  imports.add("env", "input_size", input_size_type(),
              [channel](std::span<const TypedValue>, HostContext&) -> Values {
                return {TypedValue::make_i32(
                    static_cast<int32_t>(channel->input.size()))};
              });

  imports.add(
      "env", "io_read", io_read_type(),
      [channel](std::span<const TypedValue> args, HostContext& ctx) -> Values {
        uint32_t ptr = args[0].u32();
        uint32_t len = args[1].u32();
        if (ctx.memory == nullptr) {
          throw LinkError("io_read requires linear memory");
        }
        size_t available = channel->input.size() - channel->cursor;
        size_t n = std::min<size_t>(len, available);
        if (n > 0) {
          ctx.memory->write_bytes(
              ptr, BytesView(channel->input.data() + channel->cursor, n));
          channel->cursor += n;
          ctx.stats->io_bytes_in += n;
          // Self-report the true host-side copy to the shadow meter only —
          // never to ctx.stats, which stays billing-authoritative.
          if (ctx.meter != nullptr) ctx.meter->on_io(n, 0);
        }
        return {TypedValue::make_i32(static_cast<int32_t>(n))};
      });

  imports.add(
      "env", "io_write", io_write_type(),
      [channel](std::span<const TypedValue> args, HostContext& ctx) -> Values {
        uint32_t ptr = args[0].u32();
        uint32_t len = args[1].u32();
        if (ctx.memory == nullptr) {
          throw LinkError("io_write requires linear memory");
        }
        append(channel->output, ctx.memory->view(ptr, len));
        ctx.stats->io_bytes_out += len;
        if (ctx.meter != nullptr) ctx.meter->on_io(0, len);
        return {TypedValue::make_i32(static_cast<int32_t>(len))};
      });

  imports.add("env", "debug_i64", debug_i64_type(),
              [debug_sink](std::span<const TypedValue> args,
                           HostContext&) -> Values {
                if (debug_sink != nullptr) debug_sink->push_back(args[0].i64());
                return {};
              });

  return imports;
}

}  // namespace acctee::core
