"""Black-box steganography simulator: channels, stegosystems, and wardens."""

from .baselines import (EmbedStats, s1_embed, s1_extract, s2_embed, s2_extract,
                        s3_embed, s3_extract, s4_embed, s4_extract)
from .channel import (ChannelSpec, Document, load_channel_file,
                      load_channel_spec, min_entropy)
from .ecc import (bits_from_bytes, bits_from_hex, bytes_from_bits, dec, enc,
                  hex_from_bits)
from .errors import ConfigError, CounterError, ProtocolError, StegoError
from .mail import Mail, merge_by_date, read_trace, write_trace
from .prf import (BitFunction, Counter, Key, eval_bit, eval_bit_sync,
                  eval_bit_tuple)
from .protocols import (ADDRESS1, ADDRESS2, p1_embed, p1_extract, p2_embed,
                        p2_extract)
from .rng import RngState
from .security import (AdvantageEstimate, AddressFrequencyDistinguisher,
                       BenchReport, ConstantGuessDistinguisher,
                       DocumentFrequencyDistinguisher, ReliabilityReport,
                       SystemConfig, benchmark_scaling, build_distinguisher,
                       capacity, channel_goodness_of_fit, ct_oracle,
                       embed_message, extract_message, reliability_estimate,
                       run_game, transmission_rate)

__version__ = "0.1.0"
