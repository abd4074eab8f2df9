"""Weight-compression accounting, from one kernel to a 16-layer network.

Walks through the storage story: what one 3x3 kernel costs at each mask
width, what a 13-conv network costs under a mixed 3-bit/1-bit profile,
and what actually lands on disk when a small model is packed into a
container file.
"""
import numpy as np

from qnip import config_path
from qnip.codec import (
    build_compressed_model,
    decode,
    encode,
    model_ratio,
    model_sizes,
    parse_profile,
    ratio_formula,
)
from qnip.network import init_float_model, load_network, parse_network

print("=== per-kernel ratios (float 288 bits vs 9m mask bits + 8 scalar bits) ===")
for m in range(1, 6):
    print(f"  m={m}: {ratio_formula(m):6.2f}x")

print()
print("=== 13-conv network, seven 3-bit layers then six 1-bit layers ===")
vgg = load_network(config_path("vgg16"))
profile = parse_profile("3x7,1x6", len(vgg.conv_specs))
sizes = model_sizes(vgg, profile)
print(f"  overall ratio : {model_ratio(vgg, profile):.2f}x")
print(f"  float weights : {sizes.float_bytes:>12,} bytes "
      f"({sizes.float_bytes / 1e6:.2f} MB)")
print(f"  compressed    : {sizes.compressed_bytes:>12,} bytes "
      f"({sizes.compressed_bytes / 1e6:.2f} MB)")

print()
print("=== packing a small random model ===")
net = parse_network("input 3 16 16\nconv 8 pad=1\npool\nconv 12 tap\n"
                    "pool\nflatten\ndense 4\n")
model = init_float_model(net, np.random.default_rng(0))
compressed = build_compressed_model(net, model, [3, 1])
for i, layer in enumerate(compressed.layers):
    shape = net.conv_specs[i]
    print(f"  conv{i + 1}: {shape.out_channels}x{shape.in_channels} kernels, "
          f"m={compressed.profile[i]}, shift e={layer.shift}")
blob = encode(compressed)
predicted = model_sizes(net, compressed.profile, compressed.policy,
                        compressed.source_checksum).compressed_bytes
print(f"  container     : {len(blob)} bytes on disk "
      f"(size accounting predicts {predicted})")
print(f"  magic/version : {blob[:4]!r} v{blob[4]}")
assert decode(blob) == compressed
print("  decode(encode(model)) == model: round trip is bit-exact")
