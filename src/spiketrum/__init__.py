"""Sparse spike-train audio coding over a gammatone kernel dictionary.

Audio goes in, a spike train on 120 channels comes out, and the spike
train linearly reconstructs an approximation of the audio. The encoder
is greedy matching pursuit against 40 ERB-spaced gammatone kernels; the
spike rate, an early-stop threshold and the correlation engine are
configurable, and the pursuit can run on an emulation of the hardware's
34-bit Q5.28 integer datapath.
"""

from .kernel_bank import (
    BankFormatError,
    KernelBank,
    build_bank,
    erb_center_frequencies,
    generate_gammatone,
    load_bank,
    save_bank,
)
from .encoder import (
    Code,
    EncoderConfig,
    SegmentBuffer,
    encode_segment,
    encode_stream,
    read_codes_csv,
    segment_stream,
    write_codes_csv,
)
from .itp import (
    SPIKE_DTYPE,
    AerFormatError,
    ChannelMap,
    channel_of,
    codes_to_spikes,
    quantize_intensity,
    read_aer,
    spikes_to_codes,
    write_aer_binary,
    write_aer_text,
)
from .decoder import (
    encoding_report,
    reconstruct_from_codes,
    reconstruct_from_spikes,
    snr_db,
    sparsity_percent,
    spike_entropy,
)
from .fixed_point import (
    SaturationFlag,
    encode_segment_fixed,
    parity_harness,
    q_add,
    q_mul,
    to_fixed,
    to_float,
)

__version__ = "0.1.0"
