"""Category-steered variational RNN: joint generation + classification
training, hidden-state initialization steering, corpus tooling, and the
category-accuracy / perplexity / BLEU evaluation suite."""
